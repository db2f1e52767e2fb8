#include "support/tracing.h"

#include <algorithm>
#include <cstdio>

#include "support/io.h"
#include "support/json.h"

namespace tessel {

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2)),
      epoch_(std::chrono::steady_clock::now())
{
}

TraceRecorder::~TraceRecorder()
{
    delete[] slots_.load(std::memory_order_acquire);
}

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder *rec = new TraceRecorder; // never destroyed
    return *rec;
}

void
TraceRecorder::setEnabled(bool on)
{
    if (on) {
        // Publish the ring before the flag: a span site that sees
        // enabled() (acquire) also sees the slots.
        std::lock_guard<std::mutex> lock(allocMu_);
        if (slots_.load(std::memory_order_relaxed) == nullptr)
            slots_.store(new Slot[capacity_], std::memory_order_release);
    }
    enabled_.store(on, std::memory_order_release);
}

bool
TraceRecorder::enabled() const
{
    return enabled_.load(std::memory_order_acquire);
}

uint64_t
TraceRecorder::nowMicros() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

uint32_t
TraceRecorder::threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t mine =
        next.fetch_add(1, std::memory_order_relaxed);
    return mine;
}

void
TraceRecorder::record(const SpanRecord &rec)
{
    Slot *const slots = slots_.load(std::memory_order_acquire);
    if (slots == nullptr)
        return;
    const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots[idx % capacity_];
    // Seqlock write: mark the slot dirty (odd), fill, publish (even).
    // Generation 2*idx+2 is unique per claim, so a reader that observes
    // a changed seq knows its copy was torn.
    slot.seq.store(2 * idx + 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    slot.rec = rec;
    slot.seq.store(2 * idx + 2, std::memory_order_release);
}

std::vector<SpanRecord>
TraceRecorder::collect() const
{
    const Slot *const slots = slots_.load(std::memory_order_acquire);
    if (slots == nullptr)
        return {};
    // Oldest-first sweep: start at the slot the next write would claim.
    const uint64_t head = next_.load(std::memory_order_acquire);
    std::vector<SpanRecord> out;
    out.reserve(std::min<uint64_t>(head, capacity_));
    for (size_t off = 0; off < capacity_; ++off) {
        const Slot &slot = slots[(head + off) % capacity_];
        const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 == 0 || (s1 & 1) != 0)
            continue; // never written, or a writer is mid-fill
        SpanRecord copy = slot.rec;
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint64_t s2 = slot.seq.load(std::memory_order_acquire);
        if (s1 != s2)
            continue; // overwritten while copying: drop the torn slot
        out.push_back(copy);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         return a.tsMicros < b.tsMicros;
                     });
    return out;
}

uint64_t
TraceRecorder::recorded() const
{
    return next_.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------------
// TraceSpan
// --------------------------------------------------------------------

TraceSpan::TraceSpan(const char *name, TraceRecorder &rec)
    : rec_(rec.enabled() ? &rec : nullptr)
{
    if (rec_ == nullptr)
        return;
    span_.name = name;
    span_.tsMicros = rec_->nowMicros();
    span_.tid = TraceRecorder::threadId();
}

TraceSpan::TraceSpan(TraceSpan &&other) noexcept
    : rec_(other.rec_), span_(other.span_)
{
    other.rec_ = nullptr;
}

TraceSpan::~TraceSpan()
{
    if (rec_ == nullptr)
        return;
    const uint64_t end = rec_->nowMicros();
    span_.durMicros = end > span_.tsMicros ? end - span_.tsMicros : 0;
    rec_->record(span_);
}

void
TraceSpan::setArg(const char *key, uint64_t value)
{
    if (rec_ == nullptr || span_.nargs >= SpanRecord::kMaxArgs)
        return;
    span_.argKey[span_.nargs] = key;
    span_.argValue[span_.nargs] = value;
    ++span_.nargs;
}

void
TraceSpan::setLabel(const std::string &label)
{
    if (rec_ == nullptr)
        return;
    const size_t n = std::min(label.size(), SpanRecord::kLabelCap - 1);
    std::memcpy(span_.label, label.data(), n);
    span_.label[n] = '\0';
}

// --------------------------------------------------------------------
// Chrome trace-event export
// --------------------------------------------------------------------

namespace {

/** jsonEscape of a NUL-terminated string read to at most @p maxLen
 *  bytes (span names and labels live in fixed-size buffers). */
std::string
escapeBounded(const char *s, size_t maxLen)
{
    size_t n = 0;
    while (n < maxLen && s[n] != '\0')
        ++n;
    return jsonEscape(std::string_view(s, n));
}

} // namespace

std::string
toChromeTrace(const std::vector<SpanRecord> &spans)
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    for (const SpanRecord &s : spans) {
        if (s.name == nullptr)
            continue;
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": \"";
        out += escapeBounded(s.name, 256);
        out += "\", \"cat\": \"tessel\", \"ph\": \"X\", \"pid\": 1";
        out += ", \"tid\": " + std::to_string(s.tid);
        out += ", \"ts\": " + std::to_string(s.tsMicros);
        out += ", \"dur\": " + std::to_string(s.durMicros);
        const bool haveLabel = s.label[0] != '\0';
        if (s.nargs > 0 || haveLabel) {
            out += ", \"args\": {";
            bool firstArg = true;
            if (haveLabel) {
                out += "\"label\": \"";
                out += escapeBounded(s.label, SpanRecord::kLabelCap);
                out += '"';
                firstArg = false;
            }
            for (uint32_t i = 0; i < s.nargs; ++i) {
                if (s.argKey[i] == nullptr)
                    continue;
                if (!firstArg)
                    out += ", ";
                firstArg = false;
                out += '"';
                out += escapeBounded(s.argKey[i], 256);
                out += "\": " + std::to_string(s.argValue[i]);
            }
            out += '}';
        }
        out += '}';
    }
    out += "\n]}\n";
    return out;
}

bool
writeChromeTrace(const TraceRecorder &rec, const std::string &path,
                 std::string *err)
{
    return writeFileAtomic(path, toChromeTrace(rec.collect()), err);
}

} // namespace tessel
