#include "ledger.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "json.h"
#include "placement/comm.h"
#include "store/adapt.h"
#include "store/fingerprint.h"
#include "store/serialize.h"
#include "support/timer.h"

using namespace tessel;

namespace perfbench {

namespace {

/** Mean seconds per call of @p fn over @p reps calls. */
double
meanSeconds(int reps, const std::function<void()> &fn)
{
    const Stopwatch watch;
    for (int i = 0; i < reps; ++i)
        fn();
    return watch.seconds() / reps;
}

/** Results of probed calls land here, so the calls cannot be
 * optimized away. */
volatile uint64_t g_sink = 0;

template <typename T>
void
keep(T v)
{
    g_sink = g_sink + static_cast<uint64_t>(v);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------- spans

struct SpanAgg
{
    uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
    double meanMs() const
    {
        return count ? totalMs / static_cast<double>(count) : 0.0;
    }
};

uint64_t
spanEnd(const SpanRecord &s)
{
    return s.tsMicros + s.durMicros;
}

/** Per-name totals and self time (duration minus directly nested spans
 * on the same thread). */
std::map<std::string, SpanAgg>
aggregateSpans(std::vector<SpanRecord> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.tsMicros != b.tsMicros)
                      return a.tsMicros < b.tsMicros;
                  return a.durMicros > b.durMicros;
              });
    std::vector<double> child_us(spans.size(), 0.0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (i > 0 && spans[i].tid != spans[i - 1].tid)
            stack.clear();
        while (!stack.empty() &&
               spanEnd(spans[stack.back()]) <= spans[i].tsMicros)
            stack.pop_back();
        if (!stack.empty() &&
            spanEnd(spans[i]) <= spanEnd(spans[stack.back()]))
            child_us[stack.back()] += static_cast<double>(spans[i].durMicros);
        stack.push_back(i);
    }
    std::map<std::string, SpanAgg> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanAgg &agg = out[spans[i].name];
        const double dur = static_cast<double>(spans[i].durMicros);
        ++agg.count;
        agg.totalMs += dur / 1e3;
        agg.selfMs += std::max(0.0, dur - child_us[i]) / 1e3;
    }
    return out;
}

bool
isRoot(const SpanRecord &s)
{
    return std::strcmp(s.name, "query") == 0 ||
           std::strcmp(s.name, "replan") == 0;
}

/** Phases of one phase-solve span that ran into the per-phase budget
 * (warmup and cooldown each get phaseBudgetSec; the program does not
 * flag a cut phase, so it is read off the span's length). */
int
budgetCutPhases(const SpanRecord &s, double phase_budget_sec)
{
    const double sec = static_cast<double>(s.durMicros) / 1e6;
    if (phase_budget_sec <= 0.0)
        return 0;
    if (sec >= 1.9 * phase_budget_sec)
        return 2;
    return sec >= 0.95 * phase_budget_sec ? 1 : 0;
}

/** Per-query row: one answered query with the program spans of the
 * search behind it. */
struct QueryRow
{
    const AnswerRow *answer = nullptr;
    double sweepMs = 0.0;
    double phaseMs = 0.0;
    int budgetCut = 0;
    bool matched = false;
};

/**
 * Attribute spans to answers. An answer's root span is the query/replan
 * span with its label inside its submit..callback window. Search spans
 * on the root's thread inside the root belong to it; a replan's search
 * runs on a thread of its own, so search spans on threads without a
 * root are given to the replan whose window contains their start.
 */
std::vector<QueryRow>
attributeRows(const std::vector<AnswerRow> &answers,
              const std::vector<SpanRecord> &spans, double phase_budget_sec)
{
    std::vector<QueryRow> rows(answers.size());
    std::vector<const SpanRecord *> roots;
    for (const SpanRecord &s : spans)
        if (isRoot(s))
            roots.push_back(&s);
    std::vector<const SpanRecord *> root_of(answers.size(), nullptr);
    std::vector<bool> taken(roots.size(), false);
    for (size_t a = 0; a < answers.size(); ++a) {
        rows[a].answer = &answers[a];
        for (size_t r = 0; r < roots.size(); ++r) {
            const SpanRecord &s = *roots[r];
            const bool same_label =
                answers[a].label.compare(0, SpanRecord::kLabelCap - 1,
                                         s.label) == 0;
            if (taken[r] || !same_label)
                continue;
            if (s.tsMicros + 1 < answers[a].submitUs ||
                spanEnd(s) > answers[a].doneUs + 1)
                continue;
            taken[r] = true;
            root_of[a] = &s;
            rows[a].matched = true;
            break;
        }
    }
    auto inside = [](const SpanRecord &outer, const SpanRecord &s) {
        return s.tsMicros >= outer.tsMicros && s.tsMicros <= spanEnd(outer);
    };
    for (const SpanRecord &s : spans) {
        const bool sweep = std::strcmp(s.name, "repetend-sweep") == 0;
        const bool phase = std::strcmp(s.name, "phase-solve") == 0;
        if (!sweep && !phase)
            continue;
        size_t owner = answers.size();
        for (size_t a = 0; a < answers.size() && owner == answers.size();
             ++a)
            if (root_of[a] && root_of[a]->tid == s.tid &&
                inside(*root_of[a], s))
                owner = a;
        for (size_t a = 0; a < answers.size() && owner == answers.size();
             ++a)
            if (root_of[a] && answers[a].replanned &&
                root_of[a]->tid != s.tid && inside(*root_of[a], s))
                owner = a;
        if (owner == answers.size())
            continue;
        if (sweep) {
            rows[owner].sweepMs += static_cast<double>(s.durMicros) / 1e3;
        } else {
            rows[owner].phaseMs += static_cast<double>(s.durMicros) / 1e3;
            rows[owner].budgetCut += budgetCutPhases(s, phase_budget_sec);
        }
    }
    return rows;
}

// ------------------------------------------------------------ probes

/** Outside-timed layer numbers over the workload's served instances. */
struct Probes
{
    Accum fingerprintUs, getMemoryUs, getDiskMs, verifyMs;
    Accum serializeUs, deserializeUs, digestUs, planBytes, putMs;
    Accum neighborUs, adaptMs, lowerMs, relowerMs, retimeMs;
    uint64_t retimeOk = 0;
};

struct Instance
{
    BuiltQuery built;
    PlanQuery query;
    TesselOptions eff;
    Hash128 fp;
    bool searched = false;
};

bool
commAware(const Instance &inst)
{
    return inst.eff.cluster &&
           !inst.eff.cluster->isTrivial(inst.query.placement.numDevices());
}

Probes
runProbes(const LedgerInputs &in)
{
    Probes p;
    std::vector<Instance> insts;
    std::set<std::string> taken;
    for (const auto &[key, seen] : in.client->seen()) {
        if (!seen.measured || std::get<2>(key) ||
            !taken.insert(std::get<1>(key)).second)
            continue;
        Instance inst;
        std::string err;
        if (!buildFromLine(seen.line, &inst.built, &err))
            continue;
        inst.query = inst.built.answered();
        inst.eff = inst.query.effectiveOptions();
        inst.fp = fingerprintQuery(inst.query.placement, inst.eff);
        inst.searched = seen.searchedHere;
        insts.push_back(std::move(inst));
    }

    PlanCacheOptions roomy;
    roomy.memoryCapacity = 4096;
    PlanCache store(in.storeDir, roomy);
    // Capacity 1 turns every alternating get into a verified disk load.
    PlanCacheOptions tiny;
    tiny.memoryCapacity = 1;
    tiny.shards = 1;
    PlanCache disk(in.storeDir, tiny);
    PlanCache writer(in.scratchDir, roomy);

    for (const Instance &inst : insts) {
        p.fingerprintUs.add(1e6 * meanSeconds(200, [&] {
            keep(fingerprintQuery(inst.query.placement, inst.eff).lo);
        }));
        const std::optional<TesselResult> plan = store.peek(inst.fp);
        if (!plan)
            continue;
        std::string bytes;
        p.serializeUs.add(1e6 * meanSeconds(20, [&] {
            bytes = serializeResult(*plan, inst.fp);
        }));
        p.planBytes.add(static_cast<double>(bytes.size()));
        p.deserializeUs.add(1e6 * meanSeconds(20, [&] {
            keep(deserializeResult(bytes).ok);
        }));
        p.digestUs.add(1e6 * meanSeconds(20, [&] {
            keep(resultPlanDigest(*plan).lo);
        }));
        p.verifyMs.add(1e3 * meanSeconds(3, [&] {
            keep(verifyResultAgainstQuery(inst.query.placement, inst.eff,
                                          *plan)
                     .ok);
        }));
        (void)store.get(inst.fp, inst.query.placement, inst.eff);
        p.getMemoryUs.add(1e6 * meanSeconds(200, [&] {
            keep(store.get(inst.fp, inst.query.placement, inst.eff)
                     .has_value());
        }));
        p.putMs.add(1e3 * meanSeconds(3, [&] {
            writer.put(inst.fp, inst.query.placement, inst.eff, *plan);
        }));
        const InstanceMeta meta =
            computeInstanceMeta(inst.query.placement, inst.eff);
        p.neighborUs.add(1e6 * meanSeconds(50, [&] {
            keep(store.neighbors(meta, 4).size());
        }));
        if (commAware(inst)) {
            p.lowerMs.add(1e3 * meanSeconds(5, [&] {
                keep(expandWithComm(inst.query.placement, *inst.eff.cluster,
                                    inst.eff.edgeMB, inst.eff.comm)
                         .numLinks);
            }));
        }
    }
    // Disk loads: alternate instances through the capacity-1 cache.
    for (int round = 0; round < 3 && insts.size() > 1; ++round) {
        for (const Instance &inst : insts) {
            const Stopwatch watch;
            PlanCache::Source source = PlanCache::Source::Miss;
            (void)disk.get(inst.fp, inst.query.placement, inst.eff, &source);
            if (source == PlanCache::Source::Disk)
                p.getDiskMs.add(watch.seconds() * 1e3);
        }
    }

    // Miss-path layers, on the instances this workload searched.
    for (const Instance &inst : insts) {
        if (!inst.searched)
            continue;
        const ReplanRequest *req =
            inst.built.replan ? &*inst.built.replan : nullptr;
        if (req && !req->delta.removesDevices()) {
            const TesselOptions base_eff = req->base.effectiveOptions();
            const std::optional<TesselResult> base = store.peek(
                fingerprintQuery(req->base.placement, base_eff));
            if (!base)
                continue;
            const bool phases_ok =
                phaseOptionsDigest(base_eff) == phaseOptionsDigest(inst.eff);
            ReplanSeed seed;
            p.retimeMs.add(1e3 * meanSeconds(1, [&] {
                seed = prepareReplanSeed(inst.query.placement, inst.eff,
                                         *base, &req->delta, phases_ok);
            }));
            p.retimeOk += seed.ok ? 1 : 0;
            if (base->expansion && commAware(inst)) {
                p.relowerMs.add(1e3 * meanSeconds(5, [&] {
                    keep(relowerWithComm(inst.query.placement,
                                         *inst.eff.cluster, inst.eff.edgeMB,
                                         inst.eff.comm, *base->expansion,
                                         req->delta)
                             .numLinks);
                }));
            }
            continue;
        }
        // Neighbor seed: adapt the nearest stored plan, as the miss
        // path does.
        const InstanceMeta meta =
            computeInstanceMeta(inst.query.placement, inst.eff);
        for (const NeighborIndex::Neighbor &near : store.neighbors(meta, 4)) {
            const std::optional<TesselResult> stored =
                store.peek(near.fingerprint);
            if (!stored)
                continue;
            InstanceMeta stored_meta;
            const bool phases_ok =
                store.neighborMeta(near.fingerprint, &stored_meta) &&
                stored_meta.phaseOptions == meta.phaseOptions;
            AdaptOutcome adapted;
            p.adaptMs.add(1e3 * meanSeconds(1, [&] {
                adapted = adaptResultToQuery(inst.query.placement, inst.eff,
                                             *stored, phases_ok);
            }));
            if (adapted.ok)
                break;
        }
    }
    return p;
}

// ------------------------------------------------------ registry reads

uint64_t
counterDelta(const LedgerInputs &in, const std::string &name)
{
    const auto it = in.registryDelta.find(name);
    return it == in.registryDelta.end() ? 0 : it->second;
}

std::string
fmt(double v, int prec = 3)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(prec);
    os << v;
    return os.str();
}

} // namespace

LedgerReport
buildLedger(const LedgerInputs &in)
{
    LedgerReport out;
    const Tally &t = *in.traced;
    const std::map<std::string, SpanAgg> spans = aggregateSpans(in.spans);
    auto span = [&spans](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanAgg{} : it->second;
    };
    const Probes p = runProbes(in);

    // Deterministic effort counters of the searches behind the
    // workload's distinct fresh answers (read back from the store).
    SearchBreakdown effort;
    uint64_t searched_instances = 0;
    std::set<std::string> counted;
    for (const auto &[key, seen] : in.client->seen()) {
        if (seen.measured && seen.searchedHere && !std::get<2>(key) &&
            counted.insert(std::get<1>(key)).second) {
            effort.merge(seen.breakdown);
            ++searched_instances;
        }
    }
    int budget_cut = 0;
    for (const SpanRecord &s : in.spans)
        if (std::strcmp(s.name, "phase-solve") == 0)
            budget_cut += budgetCutPhases(s, in.phaseBudgetSec);

    // Budget-cut searches are left out, as in queries_per_s.
    const Timed untraced_timed = timedPart(*in.untraced, *in.client);
    const Timed traced_timed = timedPart(t, *in.client);
    const double untraced_qps =
        ratio(static_cast<double>(untraced_timed.latencyMs.size()),
              untraced_timed.wallSec);
    const double traced_qps =
        ratio(static_cast<double>(traced_timed.latencyMs.size()),
              traced_timed.wallSec);
    const double busy_us =
        static_cast<double>(counterDelta(in, "loop.worker_busy_us"));
    double answer_ms_sum = 0.0;
    for (const Answer &a : t.answers)
        answer_ms_sum += a.latencyMs - a.queueWaitMs;

    auto add = [&out](const std::string &name, double value,
                      const std::string &unit) {
        out.metrics.push_back({name, value, unit});
    };
    add("trace.parse_us", in.wire.parseUs.mean(), "us");
    add("trace.build_query_us", in.wire.buildUs.mean(), "us");
    add("trace.format_us", in.wire.formatUs.mean(), "us");
    add("loop.queue_wait_ms_p50", quantile(t.queueWaits(), 0.5), "ms");
    add("loop.queue_wait_ms_p99", quantile(t.queueWaits(), 0.99), "ms");
    add("loop.worker_busy_share",
        ratio(busy_us / 1e6, t.wallSec * in.pinned.workers), "ratio");
    add("loop.queue_high_water", static_cast<double>(t.loop.queueHighWater),
        "count");
    add("loop.rejected",
        static_cast<double>(t.loop.rejectedQueueFull +
                            t.loop.rejectedThrottled +
                            t.loop.rejectedShutdown),
        "count");
    add("store.fingerprint_us", p.fingerprintUs.mean(), "us");
    add("store.get_memory_us", p.getMemoryUs.mean(), "us");
    add("store.get_disk_ms", p.getDiskMs.mean(), "ms");
    add("store.verify_ms", p.verifyMs.mean(), "ms");
    add("store.memory_hits", static_cast<double>(t.store.memoryHits),
        "count");
    add("store.disk_hits", static_cast<double>(t.store.diskHits), "count");
    add("store.misses", static_cast<double>(t.store.misses), "count");
    add("store.hit_ratio", t.store.hitRate(), "ratio");
    add("store.evictions", static_cast<double>(t.store.evictions), "count");
    add("store.lock_contended", static_cast<double>(t.store.lockContended),
        "count");
    add("store.serialize_us", p.serializeUs.mean(), "us");
    add("store.deserialize_us", p.deserializeUs.mean(), "us");
    add("store.digest_us", p.digestUs.mean(), "us");
    add("store.plan_bytes", p.planBytes.mean(), "bytes");
    add("store.put_ms", p.putMs.mean(), "ms");
    add("store.neighbor_lookup_us", p.neighborUs.mean(), "us");
    add("store.adapt_ms", p.adaptMs.mean(), "ms");
    add("store.seeded_ratio",
        ratio(static_cast<double>(t.seeded), static_cast<double>(t.searched)),
        "ratio");
    add("placement.lower_ms", p.lowerMs.mean(), "ms");
    add("placement.relower_ms", p.relowerMs.mean(), "ms");
    add("core.sweep_ms", span("repetend-sweep").meanMs(), "ms");
    add("core.candidates_enumerated",
        static_cast<double>(effort.candidatesEnumerated), "count");
    add("core.candidates_solved",
        static_cast<double>(effort.candidatesSolved), "count");
    add("core.solve_ratio",
        ratio(static_cast<double>(effort.candidatesSolved),
              static_cast<double>(effort.candidatesEnumerated)),
        "ratio");
    add("core.value_sweeps", static_cast<double>(effort.valueSweeps),
        "count");
    add("core.seed_nodes_pruned",
        static_cast<double>(effort.seededNodesPruned), "count");
    add("core.retime_ms", p.retimeMs.mean(), "ms");
    add("core.retime_ok_ratio",
        ratio(static_cast<double>(p.retimeOk),
              static_cast<double>(p.retimeMs.count)),
        "ratio");
    add("service.stale_share",
        ratio(static_cast<double>(t.stale), static_cast<double>(t.attempted)),
        "ratio");
    add("service.degraded", static_cast<double>(t.degraded), "count");
    add("solver.phase_ms", span("phase-solve").meanMs(), "ms");
    add("solver.nodes", static_cast<double>(effort.solverNodes), "count");
    add("solver.sat_checks", static_cast<double>(effort.satChecks), "count");
    add("solver.budget_cut", budget_cut, "count");
    add("trace_overhead", ratio(untraced_qps, traced_qps), "ratio");

    // ---------------------------------------------------- human tables
    std::ostringstream txt;
    txt << "per-layer metrics (" << in.workload << ", traced phase: "
        << t.attempted << " answers in " << fmt(t.wallSec) << " s; "
        << searched_instances << " searched instances):\n";
    for (const Metric &m : out.metrics)
        txt << "  " << m.name << " = " << fmt(m.value, 4) << " " << m.unit
            << "\n";

    txt << "layer ledger (program flight-recorder spans; self = minus "
           "nested spans on the same thread; "
        << in.spans.size() << " kept of " << in.spansRecorded
        << " recorded):\n";
    txt << "  span                 count      total_ms       self_ms\n";
    for (const auto &[name, agg] : spans) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-18s %7llu %13.3f %13.3f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(agg.count),
                      agg.totalMs, agg.selfMs);
        txt << line;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-18s %7llu %13.3f %13.3f   (benchmark-timed)\n",
                  "wire.parse+build",
                  static_cast<unsigned long long>(in.wire.parseUs.count),
                  (in.wire.parseUs.sum + in.wire.buildUs.sum) / 1e3,
                  (in.wire.parseUs.sum + in.wire.buildUs.sum) / 1e3);
    txt << line;
    std::snprintf(line, sizeof(line),
                  "  %-18s %7llu %13.3f %13.3f   (benchmark-timed)\n",
                  "wire.format",
                  static_cast<unsigned long long>(in.wire.formatUs.count),
                  in.wire.formatUs.sum / 1e3, in.wire.formatUs.sum / 1e3);
    txt << line;

    // Outside-timed vs program-reported numbers for the same layer.
    // Span pairs compare against the effort behind every searched
    // answer (an instance answered twice was searched twice).
    SearchBreakdown answered_effort;
    for (const AnswerRow &row : t.rows) {
        if ((row.source == "search" || row.stale) && row.seen)
            answered_effort.merge(row.seen->breakdown);
    }
    struct Pair
    {
        std::string what;
        double outside;
        double program;
        /** Only comparable when the layer ran (both sides nonzero). */
        bool whenPresent;
    };
    auto count = [&t](const char *source) {
        const auto it = t.bySource.find(source);
        return it == t.bySource.end() ? 0.0 : static_cast<double>(it->second);
    };
    const std::vector<Pair> pairs = {
        {"store.memory_hits (StoreStats vs registry)",
         static_cast<double>(t.store.memoryHits),
         static_cast<double>(counterDelta(in, "store.memory_hits")), false},
        {"store.disk_hits (StoreStats vs registry)",
         static_cast<double>(t.store.diskHits),
         static_cast<double>(counterDelta(in, "store.disk_hits")), false},
        {"store.misses (StoreStats vs registry)",
         static_cast<double>(t.store.misses),
         static_cast<double>(counterDelta(in, "store.misses")), false},
        {"store.evictions (StoreStats vs registry)",
         static_cast<double>(t.store.evictions),
         static_cast<double>(counterDelta(in, "store.evictions")), false},
        {"store.lock_contended (StoreStats vs registry)",
         static_cast<double>(t.store.lockContended),
         static_cast<double>(counterDelta(in, "store.lock_contended")),
         false},
        {"memory hits (client answers by source vs StoreStats)",
         count("memory"), static_cast<double>(t.store.memoryHits), false},
        {"loop.submitted (LoopStats vs registry)",
         static_cast<double>(t.loop.submitted),
         static_cast<double>(counterDelta(in, "loop.submitted")), false},
        {"loop.completed (LoopStats vs registry)",
         static_cast<double>(t.loop.completed),
         static_cast<double>(counterDelta(in, "loop.completed")), false},
        {"answers (client vs LoopStats.completed)",
         static_cast<double>(t.attempted),
         static_cast<double>(t.loop.completed), false},
        {"worker busy ms (client answer times vs loop.worker_busy_us)",
         answer_ms_sum, busy_us / 1e3, false},
        {"answer ms per answer (client answer time vs query+replan spans)",
         ratio(answer_ms_sum, static_cast<double>(t.attempted)),
         ratio(span("query").totalMs + span("replan").totalMs,
               static_cast<double>(span("query").count +
                                   span("replan").count)),
         true},
        {"verify ms per call (probe vs verify span mean)", p.verifyMs.mean(),
         span("verify").meanMs(), true},
        {"repetend sweep ms (breakdown.repetendSeconds vs spans)",
         answered_effort.repetendSeconds * 1e3,
         span("repetend-sweep").totalMs, true},
        {"phase solve ms (breakdown warmup+cooldown vs phase-solve spans)",
         (answered_effort.warmupSeconds + answered_effort.cooldownSeconds) *
             1e3,
         span("phase-solve").totalMs, true},
    };
    txt << "outside vs program (disagreement beyond "
        << fmt(kAgreementBound * 100, 0) << "% is listed):\n";
    std::vector<std::string> disagreements;
    for (const Pair &pr : pairs) {
        if (pr.whenPresent && (pr.outside == 0.0 || pr.program == 0.0)) {
            txt << "  " << pr.what << ": n/a (layer did not run)\n";
            continue;
        }
        const double scale =
            std::max(std::abs(pr.outside), std::abs(pr.program));
        const bool agree =
            scale == 0.0 ||
            std::abs(pr.outside - pr.program) <= kAgreementBound * scale;
        txt << "  " << pr.what << ": " << fmt(pr.outside) << " vs "
            << fmt(pr.program) << (agree ? "" : "   <-- DISAGREE") << "\n";
        if (!agree)
            disagreements.push_back(pr.what);
    }
    if (in.spansRecorded > in.spans.size())
        txt << "  note: the flight recorder wrapped; span totals cover the "
               "newest "
            << in.spans.size() << " spans only\n";

    // Per-query rows (cold and drift).
    const std::vector<QueryRow> rows =
        in.workload == "hot"
            ? std::vector<QueryRow>{}
            : attributeRows(t.rows, in.spans, in.phaseBudgetSec);
    if (!rows.empty()) {
        txt << "per-query rows (traced phase; * = a phase hit the per-phase "
               "budget, so its counters and times are machine-dependent):\n";
        txt << "  label                          source  wall_ms    sweep_ms"
               "    phase_ms cut flags\n";
        for (const QueryRow &r : rows) {
            const AnswerRow &a = *r.answer;
            std::string flags;
            if (a.stale)
                flags += "stale ";
            if (a.degraded)
                flags += "degraded ";
            if (!r.matched)
                flags += "unmatched ";
            std::snprintf(line, sizeof(line),
                          "  %-30s %-7s %9.2f %10.2f %11.2f %2d%s %s\n",
                          a.label.substr(0, 30).c_str(), a.source.c_str(),
                          a.latencyMs, r.sweepMs, r.phaseMs, r.budgetCut,
                          r.budgetCut ? "*" : " ", flags.c_str());
            txt << line;
        }
    }
    out.text = txt.str();

    // ---------------------------------------------------- ledger file
    std::ostringstream js;
    js << "{\"workload\": " << jsonString(in.workload) << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i)
        js << (i ? ", " : "") << jsonString(out.metrics[i].name) << ": "
           << jsonNumber(out.metrics[i].value);
    js << "}, \"spans\": {";
    bool first = true;
    for (const auto &[name, agg] : spans) {
        js << (first ? "" : ", ") << jsonString(name) << ": {\"count\": "
           << agg.count << ", \"total_ms\": " << jsonNumber(agg.totalMs)
           << ", \"self_ms\": " << jsonNumber(agg.selfMs) << "}";
        first = false;
    }
    js << "}, \"spans_recorded\": " << in.spansRecorded
       << ", \"comparisons\": [";
    for (size_t i = 0; i < pairs.size(); ++i)
        js << (i ? ", " : "") << "{\"what\": " << jsonString(pairs[i].what)
           << ", \"outside\": " << jsonNumber(pairs[i].outside)
           << ", \"program\": " << jsonNumber(pairs[i].program) << "}";
    js << "], \"disagreements\": [";
    for (size_t i = 0; i < disagreements.size(); ++i)
        js << (i ? ", " : "") << jsonString(disagreements[i]);
    js << "], \"rows\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
        const AnswerRow &a = *rows[i].answer;
        js << (i ? ", " : "") << "{\"label\": " << jsonString(a.label)
           << ", \"source\": " << jsonString(a.source)
           << ", \"wall_ms\": " << jsonNumber(a.latencyMs)
           << ", \"core.sweep_ms\": " << jsonNumber(rows[i].sweepMs)
           << ", \"solver.phase_ms\": " << jsonNumber(rows[i].phaseMs)
           << ", \"solver.budget_cut\": " << rows[i].budgetCut
           << ", \"machine_dependent\": "
           << (rows[i].budgetCut ? "true" : "false")
           << ", \"stale\": " << (a.stale ? "true" : "false")
           << ", \"degraded\": " << (a.degraded ? "true" : "false") << "}";
    }
    js << "]}\n";
    out.json = js.str();
    return out;
}

} // namespace perfbench
