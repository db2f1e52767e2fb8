#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <unordered_map>

#include "placement/shapes.h"
#include "store/adapt.h"
#include "store/serialize.h"
#include "support/logging.h"
#include "support/threadpool.h"
#include "support/timer.h"
#include "support/tracing.h"

namespace tessel {

PlanningService::PlanningService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cacheDir,
             PlanCacheOptions{options_.memoryCapacity})
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    metrics_.answerMemory =
        reg.histogram("service.answer_ms", "source", "memory");
    metrics_.answerDisk =
        reg.histogram("service.answer_ms", "source", "disk");
    metrics_.answerSearch =
        reg.histogram("service.answer_ms", "source", "search");
    metrics_.answerStale =
        reg.histogram("service.answer_ms", "source", "stale");
    metrics_.staleServed = reg.counter("service.stale_served");
    metrics_.degradedServed = reg.counter("service.degraded_served");
    // Incremented by tesselSearch; registered here so the daemon
    // exports the series before the first cut completion.
    reg.counter("search.phase_unproven");
}

void
PlanningService::observeAnswer(const QueryReport &report) const
{
    const double ms = report.wallSec * 1e3;
    if (std::strcmp(report.source, "memory") == 0)
        metrics_.answerMemory->observe(ms);
    else if (std::strcmp(report.source, "disk") == 0)
        metrics_.answerDisk->observe(ms);
    else if (std::strcmp(report.source, "stale") == 0)
        metrics_.answerStale->observe(ms);
    else
        metrics_.answerSearch->observe(ms);
    if (report.stale)
        metrics_.staleServed->inc();
    if (report.degraded)
        metrics_.degradedServed->inc();
}

PlanningService::~PlanningService()
{
    waitBackgroundReplans();
}

namespace {

/** A neighbor's adapted plan warm-starting one miss. */
struct NeighborSeed
{
    SearchSeed seed;      ///< must outlive the search that points at it
    std::string from;     ///< neighbor fingerprint (hex); empty: unseeded
    SearchBreakdown work; ///< solver work the adaptation itself spent
};

/** Nearest stored neighbors tried per miss. */
constexpr size_t kNeighborK = 4;

/**
 * Try to warm-start a missed instance from the store's neighbor index:
 * rank stored instances by similarity, fetch each candidate raw, and
 * keep the first one that adapts into a verified plan for this query.
 * On success out.seed carries the virtual incumbent (period + window
 * order) for the search. Failures are free beyond the adaptation
 * attempt itself — the search simply runs cold.
 */
bool
trySeedFromNeighbors(PlanCache &cache, const Placement &placement,
                     const TesselOptions &eff, NeighborSeed &out)
{
    const InstanceMeta meta = computeInstanceMeta(placement, eff);
    for (const NeighborIndex::Neighbor &near :
         cache.neighbors(meta, kNeighborK)) {
        const std::optional<TesselResult> stored =
            cache.peek(near.fingerprint);
        if (!stored)
            continue;
        // Exact phase reuse is licensed only when the stored instance's
        // phase-relevant options (budgets, memory model) digest equals
        // the query's — adaptation then proves placement identity on
        // its own before trusting the attestation.
        InstanceMeta stored_meta;
        const bool phases_allowed =
            cache.neighborMeta(near.fingerprint, &stored_meta) &&
            stored_meta.phaseOptions == meta.phaseOptions;
        AdaptOutcome adapted =
            adaptResultToQuery(placement, eff, *stored, phases_allowed);
        out.work.merge(adapted.breakdown);
        if (!adapted.ok)
            continue;
        out.seed = std::move(adapted.seed);
        out.from = near.fingerprint.hex();
        return true;
    }
    return false;
}

const char *
sourceName(PlanCache::Source source)
{
    return source == PlanCache::Source::Memory ? "memory" : "disk";
}

/**
 * Record what every answer path reports alike about @p result: its
 * solver effort as @p span args, and its plan hash, proof status,
 * period and effort on @p report (when non-null). A stale answer stays
 * unproven whatever its breakdown says.
 */
void
recordAnswer(const TesselResult &result, TraceSpan &span,
             QueryReport *report)
{
    const SearchBreakdown &b = result.breakdown;
    span.setArg("value_sweeps", b.valueSweeps);
    span.setArg("policy_improvements", b.policyImprovements);
    span.setArg("seed_nodes_pruned", b.seededNodesPruned);
    if (!report)
        return;
    report->planHash = resultPlanDigest(result).hex();
    report->found = result.found;
    report->proven = !report->stale && !b.budgetExhausted;
    report->period = result.period;
    report->valueSweeps = b.valueSweeps;
    report->policyImprovements = b.policyImprovements;
}

} // namespace

TesselOptions
PlanningService::resolveOptions(const PlanQuery &query) const
{
    TesselOptions eff = query.effectiveOptions();
    if (options_.perQueryBudgetSec > 0.0)
        eff.totalBudgetSec = options_.perQueryBudgetSec;
    eff.cancel = eff.cancel.linked(options_.cancel);
    return eff;
}

BatchReport
PlanningService::runBatch(const std::vector<PlanQuery> &queries)
{
    const Stopwatch batch_watch;
    BatchReport report;
    report.queries.resize(queries.size());

    // Fingerprint + dedup: identical instances (whatever their labels)
    // are answered once, by the first query that maps to them.
    std::vector<size_t> first;                // unique instance -> query
    std::vector<size_t> slot(queries.size()); // query -> unique instance
    std::unordered_map<Hash128, size_t, Hash128Hasher> slot_of;
    for (size_t q = 0; q < queries.size(); ++q) {
        const Hash128 fp =
            fingerprintQuery(queries[q].placement, resolveOptions(queries[q]));
        const auto inserted = slot_of.emplace(fp, first.size());
        if (inserted.second)
            first.push_back(q);
        slot[q] = inserted.first->second;
    }
    report.uniqueInstances = first.size();

    // One runOne per unique instance. Pooled ones search serially so
    // batch parallelism is not multiplied by per-search parallelism;
    // plans are identical either way (numThreads is not fingerprinted).
    const bool parallel =
        options_.numThreads != 1 &&
        (options_.numThreads > 1 || ThreadPool::hardwareThreads() > 1);
    if (parallel && first.size() > 1) {
        // One persistent pool per service, so batches do not spawn and
        // join a worker set each; lazy so a serial service never does.
        std::unique_lock<std::mutex> lock(poolMu_);
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>(options_.numThreads);
        lock.unlock();
        for (size_t q : first) {
            pool_->submit([this, &queries, &report, q] {
                PlanQuery serial = queries[q];
                serial.options.numThreads = 1;
                runOne(serial, &report.queries[q]);
            });
        }
        pool_->wait();
    } else {
        for (size_t q : first)
            runOne(queries[q], &report.queries[q]);
    }

    // Deduplicated copies share their instance's answer and timing.
    for (size_t q = 0; q < queries.size(); ++q) {
        QueryReport &row = report.queries[q];
        if (first[slot[q]] != q) {
            row = report.queries[first[slot[q]]];
            row.label = queries[q].label;
        } else if (std::strcmp(row.source, "memory") == 0) {
            ++report.memoryHits;
        } else if (std::strcmp(row.source, "disk") == 0) {
            ++report.diskHits;
        } else {
            ++report.searches;
        }
    }

    report.wallSec = batch_watch.seconds();
    report.throughputQps =
        report.wallSec > 0.0
            ? static_cast<double>(queries.size()) / report.wallSec
            : 0.0;
    report.cacheStats = cache_.stats();
    return report;
}

TesselResult
PlanningService::searchMiss(const PlanQuery &query, const TesselOptions &eff,
                            const Hash128 &fp, QueryReport *report)
{
    NeighborSeed neighbor;
    TesselOptions opts = eff;
    if (options_.neighborSeed) {
        TraceSpan span("seed-adapt");
        if (trySeedFromNeighbors(cache_, query.placement, eff, neighbor)) {
            opts.seed = &neighbor.seed;
            span.setLabel(neighbor.from);
        }
    }
    TesselResult result = tesselSearch(query.placement, opts);
    result.breakdown.merge(neighbor.work);
    // A cancelled search may be truncated: it answers this caller but
    // never enters the store (cancellation is not fingerprinted).
    if (!eff.cancel.cancelled())
        cache_.put(fp, query.placement, eff, result);
    if (report) {
        report->source = "search";
        if (!neighbor.from.empty()) {
            report->seededFrom = neighbor.from;
            report->seedMakespan = result.breakdown.seedMakespan;
            report->seedNodesPruned = result.breakdown.seededNodesPruned;
        }
    }
    return result;
}

TesselResult
PlanningService::runOne(const PlanQuery &query, QueryReport *report)
{
    TraceSpan span("query");
    span.setLabel(query.label);
    const TesselOptions eff = resolveOptions(query);
    const Hash128 fp = fingerprintQuery(query.placement, eff);
    const Stopwatch watch;
    if (report) {
        report->label = query.label;
        report->fingerprint = fp.hex();
    }
    PlanCache::Source source = PlanCache::Source::Miss;
    std::optional<TesselResult> cached =
        cache_.get(fp, query.placement, eff, &source);
    TesselResult result;
    if (cached) {
        result = std::move(*cached);
        if (report)
            report->source = sourceName(source);
    } else {
        result = searchMiss(query, eff, fp, report);
    }
    // Solver effort rides on the span so a Perfetto timeline shows what
    // each query cost, not just how long it took (zeros for cache hits).
    recordAnswer(result, span, report);
    if (report) {
        report->wallSec = watch.seconds();
        observeAnswer(*report);
    }
    return result;
}

PlanQuery
makeDriftedQuery(const ReplanRequest &request)
{
    if (request.delta.removesDevices()) {
        fatal_if(!request.degraded,
                 "replan: a device-removal delta needs a degraded "
                 "survivor query (the old placement references the dead "
                 "device)");
        return *request.degraded;
    }
    PlanQuery drifted = request.base;
    ClusterModel base_model;
    if (drifted.cluster)
        base_model = *drifted.cluster;
    else if (drifted.options.cluster)
        base_model = *drifted.options.cluster;
    drifted.cluster = std::make_shared<ClusterModel>(applyDelta(
        base_model, request.delta, drifted.placement.numDevices()));
    drifted.options.cluster = nullptr; // superseded by the owning field
    if (!request.delta.empty())
        drifted.label += "/drift";
    return drifted;
}

namespace {

/**
 * State a replan search needs to outlive the serving thread: when the
 * latency budget expires, the caller walks away with the retimed stale
 * answer while the search keeps running in the background — everything
 * it references (the drifted query owning the cluster model, the
 * effective options pointing into it, the seed and shared lowering)
 * rides along in one shared_ptr.
 */
struct ReplanTask
{
    PlanQuery query;
    TesselOptions effective;
    Hash128 fingerprint;
    ReplanSeed seed;
};

} // namespace

TesselResult
PlanningService::replan(const ReplanRequest &request, QueryReport *report)
{
    reapBackgroundReplans();

    const Stopwatch watch;
    const bool removal = request.delta.removesDevices();
    const PlanQuery drifted = makeDriftedQuery(request);
    TraceSpan span("replan");
    span.setLabel(drifted.label);
    const TesselOptions eff = resolveOptions(drifted);
    const Hash128 fp = fingerprintQuery(drifted.placement, eff);
    if (report) {
        report->label = drifted.label;
        report->fingerprint = fp.hex();
        report->replanned = true;
        report->degraded = removal;
    }
    auto finish = [&](TesselResult result) {
        recordAnswer(result, span, report);
        if (report) {
            report->wallSec = watch.seconds();
            observeAnswer(*report);
        }
        return result;
    };

    // Replans key by the *drifted* instance's fingerprint: a repeat of
    // the same drift — or a background replan that already published —
    // is a plain cache hit, fresh by construction.
    PlanCache::Source source = PlanCache::Source::Miss;
    if (std::optional<TesselResult> cached =
            cache_.get(fp, drifted.placement, eff, &source)) {
        if (report)
            report->source = sourceName(source);
        return finish(std::move(*cached));
    }

    // Fetch the plan currently served for the base instance. A removal
    // changed the placement itself, so there is nothing to retime (the
    // old plan schedules blocks on a device that no longer exists); a
    // missing or infeasible base plan leaves nothing either. Both fall
    // through to the ordinary miss pipeline — neighbor seeding still
    // applies, so a degraded query close to a stored instance stays
    // cheap.
    std::optional<TesselResult> served;
    bool phases_ok = false;
    if (!removal) {
        const TesselOptions base_eff = resolveOptions(request.base);
        const Hash128 base_fp =
            fingerprintQuery(request.base.placement, base_eff);
        served =
            cache_.get(base_fp, request.base.placement, base_eff, nullptr);
        // Cluster drift leaves every phase-relevant knob untouched, but
        // the exact-phase license is computed, never assumed.
        phases_ok =
            phaseOptionsDigest(base_eff) == phaseOptionsDigest(eff);
        if (served && report)
            report->seededFrom = base_fp.hex();
    }
    if (!served || !served->found)
        return finish(searchMiss(drifted, eff, fp, report));

    // Retime the served plan under the drifted costs in the foreground:
    // the retimed plan is both the search's opening incumbent and the
    // conservative answer handed out if the search misses the budget.
    auto task = std::make_shared<ReplanTask>();
    task->query = drifted; // owns the drifted cluster eff points into
    task->effective = eff;
    task->fingerprint = fp;
    task->seed = prepareReplanSeed(drifted.placement, task->effective,
                                   *served, &request.delta, phases_ok);
    if (!task->seed.ok)
        return finish(searchMiss(drifted, eff, fp, report));
    if (report)
        report->seedMakespan = task->seed.seed.makespan;

    // The full replan runs with the query's own (fingerprinted) budgets
    // — replanBudgetSec bounds only how long this caller *waits*, never
    // how hard the search tries, so the published plan is bit-identical
    // to a cold search of the drifted instance.
    auto promise = std::make_shared<std::promise<TesselResult>>();
    std::future<TesselResult> future = promise->get_future();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread worker([this, task, promise, done] {
        TesselOptions opts = task->effective;
        opts.seed = &task->seed.seed;
        if (task->seed.lowered)
            opts.lowered = &*task->seed.lowered;
        TesselResult result = tesselSearch(task->query.placement, opts);
        result.breakdown.merge(task->seed.work);
        if (!opts.cancel.cancelled()) {
            cache_.put(task->fingerprint, task->query.placement,
                       task->effective, result);
        }
        promise->set_value(std::move(result));
        done->store(true, std::memory_order_release);
    });

    const double budget = options_.replanBudgetSec;
    bool ready = true;
    {
        // The race: seeded search vs. the caller's latency budget.
        TraceSpan race("race");
        if (budget > 0.0) {
            ready =
                future.wait_for(std::chrono::duration<double>(budget)) ==
                std::future_status::ready;
        } else {
            future.wait();
        }
        race.setArg("search_won", ready ? 1 : 0);
    }
    if (ready) {
        worker.join();
        if (report)
            report->source = "search";
        return finish(future.get());
    }

    // Budget missed: hand the search to the background (it publishes to
    // the store on completion) and serve the old plan retimed under the
    // drifted costs — oracle-verified feasible by prepareReplanSeed,
    // conservatively suboptimal, flagged stale. Never cached: the store
    // only ever holds the search's own answer for this fingerprint.
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        bg_.push_back(BackgroundReplan{std::move(worker), done});
    }
    if (report) {
        report->stale = true;
        report->source = "stale";
    }
    return finish(task->seed.retimedResult);
}

void
PlanningService::reapBackgroundReplans()
{
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        std::vector<BackgroundReplan> keep;
        for (BackgroundReplan &bg : bg_) {
            if (bg.done->load(std::memory_order_acquire))
                finished.push_back(std::move(bg.thread));
            else
                keep.push_back(std::move(bg));
        }
        bg_.swap(keep);
    }
    for (std::thread &t : finished)
        if (t.joinable())
            t.join();
}

void
PlanningService::waitBackgroundReplans()
{
    std::vector<BackgroundReplan> pending;
    {
        std::lock_guard<std::mutex> lock(bgMu_);
        pending.swap(bg_);
    }
    for (BackgroundReplan &bg : pending)
        if (bg.thread.joinable())
            bg.thread.join();
}

std::optional<PlanQuery>
referenceShapeQuery(const std::string &shape, const std::string &variant,
                    int num_devices, double budget_sec)
{
    static const char *const kShapes[] = {"V", "X", "M", "NN", "K"};
    const bool known =
        std::find_if(std::begin(kShapes), std::end(kShapes),
                     [&](const char *s) { return shape == s; }) !=
        std::end(kShapes);
    if (!known || num_devices < 2 || num_devices % 2 != 0)
        return std::nullopt;

    TesselOptions base;
    base.totalBudgetSec = budget_sec;
    base.repetendBudgetSec =
        budget_sec > 0.0 ? std::min(1.0, budget_sec) : 1.0;
    base.phaseBudgetSec =
        budget_sec > 0.0 ? std::min(5.0, budget_sec) : 5.0;

    PlanQuery query;
    query.label = shape + "/" + variant;
    query.options = base;
    if (variant == "homogeneous") {
        query.placement = makeShapeByName(shape.c_str(), num_devices);
    } else if (variant == "mem-capped") {
        query.placement = makeShapeByName(shape.c_str(), num_devices);
        // Unit-memory shapes hold at most one activation per in-flight
        // micro-batch and device; a cap of 4 forces the memory pruning
        // paths without making any shape infeasible.
        query.options.memLimit = 4;
    } else if (variant == "hetero") {
        HeteroShape hs = makeHeteroShapeByName(shape.c_str(), num_devices);
        query.placement = std::move(hs.placement);
        query.options.edgeMB = std::move(hs.edgeMB);
        query.cluster =
            std::make_shared<ClusterModel>(std::move(hs.cluster));
    } else {
        return std::nullopt;
    }
    return query;
}

std::vector<PlanQuery>
referenceShapeQueries(int num_devices, bool include_hetero,
                      double budget_sec)
{
    std::vector<PlanQuery> out;
    const char *shapes[] = {"V", "X", "M", "NN", "K"};
    for (const char *shape : shapes) {
        out.push_back(*referenceShapeQuery(shape, "homogeneous",
                                           num_devices, budget_sec));
        out.push_back(*referenceShapeQuery(shape, "mem-capped",
                                           num_devices, budget_sec));
        if (include_hetero)
            out.push_back(*referenceShapeQuery(shape, "hetero",
                                               num_devices, budget_sec));
    }
    return out;
}

} // namespace tessel
