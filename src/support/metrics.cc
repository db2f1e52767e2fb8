#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/json.h"
#include "support/logging.h"

namespace tessel {

namespace {

std::atomic<bool> g_metricsEnabled{[] {
    const char *env = std::getenv("TESSEL_METRICS");
    if (env == nullptr)
        return true;
    return !(std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
             std::strcmp(env, "false") == 0);
}()};

/** Distributes threads across counter shards; the exact spread only
 *  affects contention, not correctness. */
unsigned
shardIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned mine =
        next.fetch_add(1, std::memory_order_relaxed);
    return mine % Counter::kShards;
}

std::string
seriesId(const std::string &name, const std::string &labelKey,
         const std::string &labelValue)
{
    if (labelKey.empty())
        return name;
    return name + '{' + labelKey + '=' + labelValue + '}';
}

const char *
kindName(MetricSample::Kind k)
{
    switch (k) {
    case MetricSample::Kind::Counter: return "counter";
    case MetricSample::Kind::Gauge: return "gauge";
    case MetricSample::Kind::Histogram: return "histogram";
    }
    return "?";
}

/** Prometheus metric-name mangling: dots (and anything else outside
 *  [a-zA-Z0-9_:]) become underscores. */
std::string
promName(const std::string &dotted)
{
    std::string out = dotted;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
promLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out.push_back(c);
        }
    }
    return out;
}

/** Format a double the way both exporters want it: integers without a
 *  trailing ".0", everything else with enough digits to round-trip the
 *  values we record (fixed-point micro-units). */
std::string
numberText(double v)
{
    char buf[64];
    if (std::isfinite(v) && v == static_cast<double>(
                                     static_cast<long long>(v)))
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

// --------------------------------------------------------------------
// Counter / Gauge / Histogram hot paths
// --------------------------------------------------------------------

void
Counter::inc(uint64_t n)
{
    if (!g_metricsEnabled.load(std::memory_order_relaxed))
        return;
    cells_[shardIndex()].v.fetch_add(n, std::memory_order_relaxed);
}

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const Cell &c : cells_)
        total += c.v.load(std::memory_order_relaxed);
    return total;
}

void
Gauge::set(int64_t v)
{
    if (!g_metricsEnabled.load(std::memory_order_relaxed))
        return;
    v_.store(v, std::memory_order_relaxed);
}

void
Gauge::setMax(int64_t v)
{
    if (!g_metricsEnabled.load(std::memory_order_relaxed))
        return;
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

void
Gauge::add(int64_t delta)
{
    if (!g_metricsEnabled.load(std::memory_order_relaxed))
        return;
    v_.fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<uint64_t>[bounds_.size() + 1])
{
    for (size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    if (!g_metricsEnabled.load(std::memory_order_relaxed))
        return;
    // Buckets follow the Prometheus le-convention: bucket i holds
    // observations <= bounds_[i]; the final cell is the +Inf overflow.
    size_t i = std::upper_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    if (i > 0 && v == bounds_[i - 1])
        --i; // upper_bound is strict; le-buckets are inclusive
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumMicro_.fetch_add(static_cast<int64_t>(std::llround(v * 1e6)),
                        std::memory_order_relaxed);
}

const std::vector<double> &
defaultLatencyBoundsMs()
{
    static const std::vector<double> bounds = {
        0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
        250, 500, 1000, 2500, 5000, 10000, 30000};
    return bounds;
}

double
histogramQuantile(const MetricSample &hist, double q)
{
    if (hist.count == 0 || hist.counts.empty())
        return 0.0;
    const double rank = q * static_cast<double>(hist.count);
    uint64_t cum = 0;
    for (size_t i = 0; i < hist.counts.size(); ++i) {
        const uint64_t prev = cum;
        cum += hist.counts[i];
        if (static_cast<double>(cum) < rank)
            continue;
        if (i >= hist.bounds.size()) // overflow bucket: no upper bound
            return hist.bounds.empty() ? 0.0 : hist.bounds.back();
        const double lo = i == 0 ? 0.0 : hist.bounds[i - 1];
        const double hi = hist.bounds[i];
        if (hist.counts[i] == 0)
            return hi;
        const double frac =
            (rank - static_cast<double>(prev)) /
            static_cast<double>(hist.counts[i]);
        return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    return hist.bounds.empty() ? 0.0 : hist.bounds.back();
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *reg = new MetricsRegistry; // never destroyed
    return *reg;
}

void
MetricsRegistry::setEnabled(bool on)
{
    g_metricsEnabled.store(on, std::memory_order_relaxed);
}

bool
MetricsRegistry::enabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

MetricsRegistry::Entry *
MetricsRegistry::findOrCreate(const std::string &name,
                              const std::string &labelKey,
                              const std::string &labelValue,
                              MetricSample::Kind kind,
                              const std::vector<double> *bounds)
{
    const std::string id = seriesId(name, labelKey, labelValue);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(id);
    if (it != series_.end()) {
        Entry &e = it->second;
        if (e.kind != kind)
            panic("metric \"", id, "\" re-registered as ", kindName(kind),
                  " (was ", kindName(e.kind), ")");
        if (kind == MetricSample::Kind::Histogram && bounds != nullptr &&
            e.histogram->bounds() != *bounds)
            panic("histogram \"", id,
                  "\" re-registered with different bounds");
        return &e;
    }
    Entry e;
    e.kind = kind;
    e.name = name;
    e.labelKey = labelKey;
    e.labelValue = labelValue;
    switch (kind) {
    case MetricSample::Kind::Counter:
        e.counter.reset(new Counter);
        break;
    case MetricSample::Kind::Gauge:
        e.gauge.reset(new Gauge);
        break;
    case MetricSample::Kind::Histogram:
        e.histogram.reset(new Histogram(
            bounds != nullptr ? *bounds : defaultLatencyBoundsMs()));
        break;
    }
    return &series_.emplace(id, std::move(e)).first->second;
}

Counter *
MetricsRegistry::counter(const std::string &name)
{
    return counter(name, "", "");
}

Counter *
MetricsRegistry::counter(const std::string &name,
                         const std::string &labelKey,
                         const std::string &labelValue)
{
    return findOrCreate(name, labelKey, labelValue,
                        MetricSample::Kind::Counter, nullptr)
        ->counter.get();
}

Gauge *
MetricsRegistry::gauge(const std::string &name)
{
    return gauge(name, "", "");
}

Gauge *
MetricsRegistry::gauge(const std::string &name, const std::string &labelKey,
                       const std::string &labelValue)
{
    return findOrCreate(name, labelKey, labelValue,
                        MetricSample::Kind::Gauge, nullptr)
        ->gauge.get();
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &bounds)
{
    return histogram(name, "", "", bounds);
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           const std::string &labelKey,
                           const std::string &labelValue,
                           const std::vector<double> &bounds)
{
    return findOrCreate(name, labelKey, labelValue,
                        MetricSample::Kind::Histogram, &bounds)
        ->histogram.get();
}

int
MetricsRegistry::addCollector(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(collectorMu_);
    const int id = nextCollectorId_++;
    collectors_[id] = std::move(fn);
    return id;
}

void
MetricsRegistry::removeCollector(int id)
{
    std::lock_guard<std::mutex> lock(collectorMu_);
    collectors_.erase(id);
}

MetricsSnapshot
MetricsRegistry::snapshot()
{
    {
        // Collectors mirror external stats structs into pre-registered
        // handles. Holding collectorMu_ for the whole sweep makes
        // removeCollector() (e.g. a PlanCache destructor) block until
        // no collector is mid-flight.
        std::lock_guard<std::mutex> lock(collectorMu_);
        for (auto &kv : collectors_)
            kv.second();
    }
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.samples.reserve(series_.size());
    for (const auto &kv : series_) {
        const Entry &e = kv.second;
        MetricSample s;
        s.name = e.name;
        s.labelKey = e.labelKey;
        s.labelValue = e.labelValue;
        s.kind = e.kind;
        switch (e.kind) {
        case MetricSample::Kind::Counter:
            s.counterValue = e.counter->value();
            break;
        case MetricSample::Kind::Gauge:
            s.gaugeValue = e.gauge->value();
            break;
        case MetricSample::Kind::Histogram: {
            const Histogram &h = *e.histogram;
            s.bounds = h.bounds_;
            s.counts.resize(h.bounds_.size() + 1);
            for (size_t i = 0; i <= h.bounds_.size(); ++i)
                s.counts[i] =
                    h.counts_[i].load(std::memory_order_relaxed);
            s.count = h.count_.load(std::memory_order_relaxed);
            s.sum = static_cast<double>(
                        h.sumMicro_.load(std::memory_order_relaxed)) *
                    1e-6;
            break;
        }
        }
        snap.samples.push_back(std::move(s));
    }
    return snap;
}

// --------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------

std::string
toPrometheus(const MetricsSnapshot &snap)
{
    std::string out;
    std::string lastFamily;
    for (const MetricSample &s : snap.samples) {
        const std::string base = promName(s.name);
        const bool newFamily = base != lastFamily;
        lastFamily = base;
        std::string label;
        if (!s.labelKey.empty())
            label = promName(s.labelKey) + "=\"" +
                    promLabelValue(s.labelValue) + "\"";
        switch (s.kind) {
        case MetricSample::Kind::Counter: {
            if (newFamily)
                out += "# TYPE " + base + "_total counter\n";
            out += base + "_total";
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + std::to_string(s.counterValue) + '\n';
            break;
        }
        case MetricSample::Kind::Gauge: {
            if (newFamily)
                out += "# TYPE " + base + " gauge\n";
            out += base;
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + std::to_string(s.gaugeValue) + '\n';
            break;
        }
        case MetricSample::Kind::Histogram: {
            if (newFamily)
                out += "# TYPE " + base + " histogram\n";
            uint64_t cum = 0;
            for (size_t i = 0; i < s.counts.size(); ++i) {
                cum += s.counts[i];
                const std::string le =
                    i < s.bounds.size() ? numberText(s.bounds[i])
                                        : "+Inf";
                out += base + "_bucket{";
                if (!label.empty())
                    out += label + ',';
                out += "le=\"" + le + "\"} " + std::to_string(cum) +
                       '\n';
            }
            out += base + "_sum";
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + numberText(s.sum) + '\n';
            out += base + "_count";
            if (!label.empty())
                out += '{' + label + '}';
            out += ' ' + std::to_string(s.count) + '\n';
            break;
        }
        }
    }
    return out;
}

std::string
toJson(const MetricsSnapshot &snap)
{
    std::string out = "{\"metrics\": [";
    bool first = true;
    for (const MetricSample &s : snap.samples) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": \"" + jsonEscape(s.name) + "\"";
        if (!s.labelKey.empty())
            out += ", \"label\": {\"" + jsonEscape(s.labelKey) +
                   "\": \"" + jsonEscape(s.labelValue) + "\"}";
        switch (s.kind) {
        case MetricSample::Kind::Counter:
            out += ", \"type\": \"counter\", \"value\": " +
                   std::to_string(s.counterValue);
            break;
        case MetricSample::Kind::Gauge:
            out += ", \"type\": \"gauge\", \"value\": " +
                   std::to_string(s.gaugeValue);
            break;
        case MetricSample::Kind::Histogram: {
            out += ", \"type\": \"histogram\", \"bounds\": [";
            for (size_t i = 0; i < s.bounds.size(); ++i) {
                if (i)
                    out += ", ";
                out += numberText(s.bounds[i]);
            }
            out += "], \"counts\": [";
            for (size_t i = 0; i < s.counts.size(); ++i) {
                if (i)
                    out += ", ";
                out += std::to_string(s.counts[i]);
            }
            out += "], \"count\": " + std::to_string(s.count) +
                   ", \"sum\": " + numberText(s.sum);
            break;
        }
        }
        out += '}';
    }
    out += "]}";
    return out;
}

} // namespace tessel
