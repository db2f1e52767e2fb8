/**
 * @file
 * Planning-service tests: batch deduplication, the memory/disk/search
 * answer paths with bit-identical plans across service instances,
 * corrupted and version-bumped store entries falling back to a fresh
 * search, concurrent fan-out determinism, and per-query budgets — plus
 * the daemon loop: streaming answers while a worker is busy, clean
 * queue-full and per-tenant throttling rejections, graceful and
 * cancelling shutdown (cancelled answers flagged and never cached), and
 * the lock-free hot path keeping lockContended at zero on a read-only
 * trace, and response lines staying valid JSON for any request id.
 * Batch rows are pinned to runOne: same answers, one `query` span per
 * unique instance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "placement/shapes.h"
#include "service/loop.h"
#include "service/service.h"
#include "service/trace.h"
#include "store/serialize.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/tracing.h"

namespace tessel {
namespace {

/** Small homogeneous batch (fast; hetero variants covered separately). */
std::vector<PlanQuery>
smallBatch()
{
    return referenceShapeQueries(4, /*include_hetero=*/false,
                                 /*budget_sec=*/5.0);
}

ServiceOptions
optionsFor(const std::string &dir)
{
    ServiceOptions opts;
    opts.cacheDir = dir;
    opts.numThreads = 1;
    return opts;
}

std::vector<std::string>
hashes(const BatchReport &report)
{
    std::vector<std::string> out;
    for (const QueryReport &q : report.queries)
        out.push_back(q.planHash);
    return out;
}

TEST(PlanningService, ColdThenMemoryThenDiskWithIdenticalPlans)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-test-", &dir));
    const std::vector<PlanQuery> batch = smallBatch();

    PlanningService service(optionsFor(dir));
    const BatchReport cold = service.runBatch(batch);
    EXPECT_EQ(cold.searches, cold.uniqueInstances);
    EXPECT_EQ(cold.memoryHits + cold.diskHits, 0u);
    for (const QueryReport &q : cold.queries) {
        EXPECT_STREQ(q.source, "search");
        EXPECT_TRUE(q.found) << q.label;
    }

    const BatchReport warm = service.runBatch(batch);
    EXPECT_EQ(warm.memoryHits, warm.uniqueInstances);
    EXPECT_EQ(warm.searches, 0u);
    EXPECT_EQ(hashes(warm), hashes(cold));
    EXPECT_DOUBLE_EQ(warm.hitRate(), 1.0);

    // A fresh service sharing the directory simulates a new process:
    // every answer comes from a verified disk entry, bit-identical.
    PlanningService fresh(optionsFor(dir));
    const BatchReport disk = fresh.runBatch(batch);
    EXPECT_EQ(disk.diskHits, disk.uniqueInstances);
    EXPECT_EQ(disk.searches, 0u);
    EXPECT_EQ(hashes(disk), hashes(cold));
    for (const QueryReport &q : disk.queries)
        EXPECT_STREQ(q.source, "disk");
    EXPECT_EQ(fresh.cache().stats().verifyFailures, 0u);
}

TEST(PlanningService, DeduplicatesIdenticalInstances)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-dedup-", &dir));

    PlanQuery q;
    q.label = "a";
    q.placement = makeShapeByName("V", 4);
    q.options.totalBudgetSec = 5.0;
    q.options.numThreads = 1;
    PlanQuery q2 = q;
    q2.label = "b";
    // Label and thread count are not part of the instance identity.
    q2.options.numThreads = 3;
    PlanQuery q3 = q;
    q3.label = "c";

    PlanningService service(optionsFor(dir));
    const BatchReport report = service.runBatch({q, q2, q3});
    EXPECT_EQ(report.uniqueInstances, 1u);
    EXPECT_EQ(report.searches, 1u);
    ASSERT_EQ(report.queries.size(), 3u);
    EXPECT_EQ(report.queries[0].fingerprint,
              report.queries[1].fingerprint);
    EXPECT_EQ(report.queries[0].planHash, report.queries[2].planHash);
}

TEST(PlanningService, CorruptedEntryFallsBackToSearch)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-corrupt-", &dir));
    PlanQuery q;
    q.label = "V";
    q.placement = makeShapeByName("V", 4);
    q.options.totalBudgetSec = 5.0;

    PlanningService service(optionsFor(dir));
    QueryReport cold;
    const TesselResult cold_result = service.runOne(q, &cold);
    ASSERT_TRUE(cold_result.found);
    EXPECT_STREQ(cold.source, "search");

    // Flip one payload byte of the stored entry.
    const std::vector<Hash128> entries = service.cache().store().list();
    ASSERT_EQ(entries.size(), 1u);
    const std::string path = service.cache().store().pathFor(entries[0]);
    std::string bytes, err;
    ASSERT_TRUE(readFile(path, &bytes, &err)) << err;
    std::string corrupted = bytes;
    corrupted[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(writeFileAtomic(path, corrupted, &err)) << err;

    const bool prev = setLogVerbose(false);
    PlanningService recovered(optionsFor(dir));
    QueryReport rec;
    const TesselResult rec_result = recovered.runOne(q, &rec);
    setLogVerbose(prev);
    EXPECT_STREQ(rec.source, "search");
    EXPECT_EQ(recovered.cache().stats().verifyFailures, 1u);
    ASSERT_TRUE(rec_result.found);
    // The fallback search reproduces the identical plan.
    EXPECT_EQ(rec.planHash, cold.planHash);
    EXPECT_TRUE(rec_result.plan == cold_result.plan);

    // Version-bumped entries are likewise rejected, not misparsed.
    std::string bumped = bytes;
    bumped[kPlanVersionOffset] =
        static_cast<char>(kPlanFormatVersion + 7);
    ASSERT_TRUE(writeFileAtomic(path, bumped, &err)) << err;
    const bool prev2 = setLogVerbose(false);
    PlanningService after_bump(optionsFor(dir));
    QueryReport bump_rep;
    after_bump.runOne(q, &bump_rep);
    setLogVerbose(prev2);
    EXPECT_STREQ(bump_rep.source, "search");
    EXPECT_EQ(after_bump.cache().stats().verifyFailures, 1u);
    EXPECT_EQ(bump_rep.planHash, cold.planHash);
}

TEST(PlanningService, ParallelFanOutMatchesSerial)
{
    std::string serial_dir, parallel_dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-serial-", &serial_dir));
    ASSERT_TRUE(makeTempDir("tessel-svc-parallel-", &parallel_dir));
    // Identical-plans-under-fan-out is only promised for searches that
    // *complete*: a wall budget expiring mid-sweep truncates to a
    // best-so-far that depends on how much CPU the contended pool gave
    // this query. Debug builds push the heavyweight shapes close to the
    // batch's 5 s budget, so give every budget enough headroom that no
    // solve truncates even with four searches timesharing the cores.
    std::vector<PlanQuery> batch = smallBatch();
    for (PlanQuery &q : batch) {
        q.options.totalBudgetSec = 60.0;
        q.options.repetendBudgetSec = 60.0;
        q.options.phaseBudgetSec = 60.0;
    }

    PlanningService serial(optionsFor(serial_dir));
    ServiceOptions par_opts = optionsFor(parallel_dir);
    par_opts.numThreads = 4;
    PlanningService parallel(par_opts);

    const BatchReport a = serial.runBatch(batch);
    const BatchReport b = parallel.runBatch(batch);
    // The pool fan-out must not change any plan (determinism contract).
    EXPECT_EQ(hashes(a), hashes(b));
    EXPECT_EQ(b.searches, b.uniqueInstances);
}

TEST(PlanningService, BatchRowsEqualRunOne)
{
    std::string batch_dir, single_dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-batch-rows-", &batch_dir));
    ASSERT_TRUE(makeTempDir("tessel-svc-run-one-", &single_dir));
    std::vector<PlanQuery> batch = smallBatch();
    batch.push_back(
        *referenceShapeQuery("V", "hetero", 4, /*budget_sec=*/5.0));

    // A batch row is exactly what runOne reports for the same query
    // on a fresh service that saw the same queries in the same order
    // (so neighbor seeding sees the same store).
    PlanningService batch_service(optionsFor(batch_dir));
    const BatchReport report = batch_service.runBatch(batch);
    PlanningService single(optionsFor(single_dir));
    ASSERT_EQ(report.queries.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        QueryReport one;
        single.runOne(batch[i], &one);
        const QueryReport &row = report.queries[i];
        EXPECT_EQ(row.label, one.label);
        EXPECT_EQ(row.fingerprint, one.fingerprint) << row.label;
        EXPECT_EQ(row.planHash, one.planHash) << row.label;
        EXPECT_STREQ(row.source, one.source) << row.label;
        EXPECT_EQ(row.found, one.found) << row.label;
        EXPECT_EQ(row.proven, one.proven) << row.label;
        EXPECT_EQ(row.period, one.period) << row.label;
        EXPECT_EQ(row.seededFrom, one.seededFrom) << row.label;
    }
}

TEST(PlanningService, BatchAnswersAreQuerySpans)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-spans-", &dir));
    const PlanQuery v = *referenceShapeQuery("V", "homogeneous", 4, 5.0);
    const PlanQuery x = *referenceShapeQuery("X", "homogeneous", 4, 5.0);
    PlanQuery copy = v;
    copy.label = "V/copy";

    TraceRecorder &rec = TraceRecorder::instance();
    const uint64_t start = rec.nowMicros();
    rec.setEnabled(true);
    PlanningService service(optionsFor(dir));
    const BatchReport report = service.runBatch({v, x, copy});
    rec.setEnabled(false);
    EXPECT_EQ(report.uniqueInstances, 2u);

    // One `query` span per unique instance, labelled by the first
    // query that mapped to it; the duplicate adds none.
    std::vector<std::string> labels;
    for (const SpanRecord &s : rec.collect())
        if (s.tsMicros >= start && std::string(s.name) == "query")
            labels.emplace_back(s.label);
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(labels, (std::vector<std::string>{v.label, x.label}));
}

TEST(PlanningService, PerQueryBudgetOverrideChangesIdentity)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-budget-", &dir));
    PlanQuery q;
    q.label = "M";
    q.placement = makeShapeByName("M", 4);
    q.options.totalBudgetSec = 5.0;

    PlanningService service(optionsFor(dir));
    QueryReport base;
    service.runOne(q, &base);

    // A service-level budget override is part of the effective options,
    // hence of the fingerprint: the same query under a different budget
    // is a different instance and must not reuse the cache entry.
    ServiceOptions tighter = optionsFor(dir);
    tighter.perQueryBudgetSec = 4.0;
    PlanningService tight_service(tighter);
    QueryReport tight;
    tight_service.runOne(q, &tight);
    EXPECT_NE(tight.fingerprint, base.fingerprint);
    EXPECT_STREQ(tight.source, "search");
}

TEST(PlanningService, HeteroQueriesServedAndVerifiedCommAware)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-svc-hetero-", &dir));
    const HeteroShape hs = makeHeteroShapeByName("V", 4);
    PlanQuery q;
    q.label = "V/hetero";
    q.placement = hs.placement;
    q.options.totalBudgetSec = 5.0;
    q.options.edgeMB = hs.edgeMB;
    q.cluster = std::make_shared<ClusterModel>(hs.cluster);

    PlanningService service(optionsFor(dir));
    QueryReport cold;
    const TesselResult result = service.runOne(q, &cold);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.commAware);

    // Disk answer re-verifies against the comm-expanded placement.
    PlanningService fresh(optionsFor(dir));
    QueryReport warm;
    const TesselResult cached = fresh.runOne(q, &warm);
    EXPECT_STREQ(warm.source, "disk");
    EXPECT_EQ(warm.planHash, cold.planHash);
    EXPECT_TRUE(cached.plan == result.plan);
    EXPECT_EQ(fresh.cache().stats().verifyFailures, 0u);
}

// -------------------------------------------------------- ServiceLoop

ServiceLoopOptions
loopOptionsFor(const std::string &dir, int workers = 2)
{
    ServiceLoopOptions opts;
    opts.service = optionsFor(dir);
    opts.workers = workers;
    return opts;
}

/** A reference query by coordinates (label stays batch-identical). */
PlanQuery
refQuery(const std::string &shape, const std::string &variant = "homogeneous")
{
    auto q = referenceShapeQuery(shape, variant, 4, /*budget_sec=*/5.0);
    EXPECT_TRUE(q.has_value()) << shape << "/" << variant;
    return *q;
}

TEST(ServiceLoop, StreamAnsweredWhileOneWorkerBusy)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-stream-", &dir));

    ServiceLoop loop(loopOptionsFor(dir, /*workers=*/2));

    // Warm the cache so the streamed queries below are hot.
    std::vector<std::string> shapes = {"V", "X", "M"};
    std::atomic<size_t> warm{0};
    for (const std::string &s : shapes)
        loop.submit(refQuery(s), "warmup",
                    [&warm](const ServiceLoop::Response &) { ++warm; });
    loop.drain();
    ASSERT_EQ(warm.load(), shapes.size());

    // Occupy one worker: a query whose callback blocks until released.
    // The other worker must keep draining the stream meanwhile — a
    // long-running (cold) search never stalls hot traffic.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("NN"), "cold",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    std::atomic<size_t> answered{0};
    std::atomic<size_t> hits{0};
    for (const std::string &s : shapes)
        loop.submit(refQuery(s), "hot",
                    [&](const ServiceLoop::Response &resp) {
                        hits += resp.report.source == std::string("memory")
                                    ? 1
                                    : 0;
                        EXPECT_TRUE(resp.report.found);
                        ++answered;
                    });
    // Wait for the hot stream with the blocker still parked.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (answered.load() < shapes.size() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(answered.load(), shapes.size())
        << "hot queries stalled behind a busy worker";
    EXPECT_EQ(hits.load(), shapes.size());

    release.set_value();
    loop.drain();
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.completed, 2 * shapes.size() + 1);
    EXPECT_EQ(stats.accepted, stats.submitted);
}

TEST(ServiceLoop, QueueFullRejectsWithCleanError)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-full-", &dir));

    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    opts.queueDepth = 1;
    ServiceLoop loop(std::move(opts));

    // Park the single worker inside a callback, then fill the queue.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("V"), "a",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    std::atomic<size_t> queued_answers{0};
    EXPECT_EQ(loop.submit(refQuery("X"), "a",
                          [&queued_answers](const ServiceLoop::Response &r) {
                              EXPECT_EQ(r.admission, Admission::Accepted);
                              ++queued_answers;
                          }),
              Admission::Accepted);

    // Queue is now at capacity: the next submission must be rejected
    // synchronously with a typed verdict and a per-query error — never
    // silently dropped, never a crash.
    bool rejected_cb = false;
    const Admission verdict = loop.submit(
        refQuery("M"), "a",
        [&rejected_cb](const ServiceLoop::Response &resp) {
            rejected_cb = true;
            EXPECT_EQ(resp.admission, Admission::QueueFull);
            EXPECT_STREQ(resp.report.source, "rejected");
            EXPECT_NE(resp.error.find("queue-full"), std::string::npos)
                << resp.error;
        });
    EXPECT_EQ(verdict, Admission::QueueFull);
    EXPECT_TRUE(rejected_cb) << "rejection callback must fire inline";

    release.set_value();
    loop.drain();
    EXPECT_EQ(queued_answers.load(), 1u);
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(ServiceLoop, TenantBudgetsThrottlePerTenant)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-tenant-", &dir));

    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    // Metered default: one token, refilled too slowly to matter within
    // the test. "vip" overrides to unlimited.
    opts.defaultBudget.ratePerSec = 1e-6;
    opts.defaultBudget.burst = 1.0;
    opts.tenantBudgets["vip"] = TenantBudget{0.0, 1.0};
    ServiceLoop loop(std::move(opts));

    EXPECT_EQ(loop.submit(refQuery("V"), "metered", nullptr),
              Admission::Accepted);
    bool throttled_cb = false;
    EXPECT_EQ(loop.submit(refQuery("X"), "metered",
                          [&throttled_cb](const ServiceLoop::Response &r) {
                              throttled_cb = true;
                              EXPECT_EQ(r.admission, Admission::Throttled);
                              EXPECT_NE(r.error.find("metered"),
                                        std::string::npos);
                          }),
              Admission::Throttled);
    EXPECT_TRUE(throttled_cb);

    // Budgets are per tenant: another tenant's bucket is untouched, and
    // the unlimited override never throttles.
    EXPECT_EQ(loop.submit(refQuery("X"), "other", nullptr),
              Admission::Accepted);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(loop.submit(refQuery("M"), "vip", nullptr),
                  Admission::Accepted);

    loop.drain();
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.rejectedThrottled, 1u);
    EXPECT_EQ(stats.accepted, 6u);
}

TEST(ServiceLoop, TokenBucketSurvivesClockSteppingBackwards)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-clock-", &dir));

    // Virtual clock the test steps by hand (only the submitting thread
    // reads it, always under the loop's admission lock).
    auto now = std::make_shared<std::chrono::steady_clock::time_point>(
        std::chrono::steady_clock::time_point{} +
        std::chrono::hours(1000));
    ServiceLoopOptions opts = loopOptionsFor(dir, /*workers=*/1);
    opts.defaultBudget.ratePerSec = 1.0;
    opts.defaultBudget.burst = 2.0;
    opts.clock = [now] { return *now; };
    ServiceLoop loop(std::move(opts));

    // Drain the burst; the bucket is now empty.
    EXPECT_EQ(loop.submit(refQuery("V"), "t", nullptr),
              Admission::Accepted);
    EXPECT_EQ(loop.submit(refQuery("X"), "t", nullptr),
              Admission::Accepted);
    EXPECT_EQ(loop.submit(refQuery("M"), "t", nullptr),
              Admission::Throttled);

    // steady_clock stepping backwards (observed across suspend/resume
    // and on virtualized clocks). The refill must saturate at zero —
    // the old code *drained* 10 s worth of tokens, locking the tenant
    // out until real time caught up with the phantom debt.
    *now -= std::chrono::seconds(10);
    EXPECT_EQ(loop.submit(refQuery("NN"), "t", nullptr),
              Admission::Throttled);

    // One second of forward progress from the new anchor refills one
    // token: the tenant is admitted again immediately, debt-free.
    *now += std::chrono::seconds(1);
    EXPECT_EQ(loop.submit(refQuery("K"), "t", nullptr),
              Admission::Accepted);

    loop.drain();
    const LoopStats stats = loop.stats();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.rejectedThrottled, 2u);
}

TEST(ServiceLoop, ShutdownDrainsAndCancelFlagsWithoutCaching)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-shutdown-", &dir));

    // Graceful: everything submitted before shutdown still answers.
    {
        ServiceLoop loop(loopOptionsFor(dir, /*workers=*/1));
        std::atomic<size_t> answered{0};
        for (const std::string s : {"V", "X", "M"})
            loop.submit(refQuery(s), "t",
                        [&answered](const ServiceLoop::Response &resp) {
                            EXPECT_TRUE(resp.report.found);
                            EXPECT_FALSE(resp.cancelled);
                            ++answered;
                        });
        loop.shutdown(/*cancel_in_flight=*/false);
        EXPECT_EQ(answered.load(), 3u);
        EXPECT_FALSE(loop.accepting());
        EXPECT_EQ(loop.submit(refQuery("V"), "t", nullptr),
                  Admission::ShuttingDown);
    }

    // Cancelling: park the worker in a callback, queue one more query,
    // shut down with cancellation. The queued query runs against the
    // tripped token, comes back flagged, and is NOT admitted to the
    // cache — cancellation is outside the fingerprint, so a truncated
    // answer must never be served to a later uncancelled query.
    std::string dir2;
    ASSERT_TRUE(makeTempDir("tessel-loop-cancel-", &dir2));
    ServiceLoop loop(loopOptionsFor(dir2, /*workers=*/1));
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    loop.submit(refQuery("V"), "t",
                [&entered, released](const ServiceLoop::Response &) {
                    entered.set_value();
                    released.wait();
                });
    entered.get_future().wait();

    bool cancelled_flagged = false;
    std::string cancelled_fp;
    loop.submit(refQuery("NN"), "t",
                [&](const ServiceLoop::Response &resp) {
                    cancelled_flagged = resp.cancelled;
                    cancelled_fp = resp.report.fingerprint;
                    EXPECT_NE(resp.error.find("cancelled"),
                              std::string::npos);
                });
    std::thread stopper([&loop] { loop.shutdown(/*cancel_in_flight=*/true); });
    release.set_value();
    stopper.join();
    EXPECT_TRUE(cancelled_flagged);

    // The cancelled answer must not have been cached: a fresh service
    // searches the instance from scratch (and the first, uncancelled
    // query is served from disk as usual).
    ASSERT_FALSE(cancelled_fp.empty());
    PlanningService fresh(optionsFor(dir2));
    QueryReport after;
    fresh.runOne(refQuery("NN"), &after);
    EXPECT_EQ(after.fingerprint, cancelled_fp);
    EXPECT_STREQ(after.source, "search");
    QueryReport hot;
    fresh.runOne(refQuery("V"), &hot);
    EXPECT_STREQ(hot.source, "disk");
}

TEST(ServiceLoop, ReadOnlyHotTraceNeverContends)
{
    std::string dir;
    ASSERT_TRUE(makeTempDir("tessel-loop-rcu-", &dir));

    ServiceLoop loop(loopOptionsFor(dir, /*workers=*/2));
    const std::vector<std::string> shapes = {"V", "X", "M", "NN", "K"};

    // Two warm passes: searches, then disk promotions into memory. Both
    // take the writer lock; after them every instance is resident.
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::string &s : shapes)
            loop.submit(refQuery(s), "warm", nullptr);
        loop.drain();
    }

    // Read-only replay: pure snapshot hits. The writer mutex is never
    // touched, so the contention counter must not move — this is the
    // regression signal for the lock-free hit path.
    const uint64_t before = loop.service().cache().stats().lockContended;
    std::atomic<size_t> memory_hits{0};
    for (int round = 0; round < 20; ++round) {
        for (const std::string &s : shapes)
            loop.submit(refQuery(s), "hot",
                        [&memory_hits](const ServiceLoop::Response &resp) {
                            memory_hits +=
                                resp.report.source == std::string("memory")
                                    ? 1
                                    : 0;
                        });
        // Drain per round so the bounded queue never rejects.
        loop.drain();
    }
    const uint64_t after = loop.service().cache().stats().lockContended;
    EXPECT_EQ(memory_hits.load(), 20 * shapes.size());
    EXPECT_EQ(after - before, 0u);
}

TEST(TraceWire, ControlBytesInIdComeBackEscaped)
{
    // The parser takes raw control bytes inside strings and the id is
    // echoed in the response, which must stay one valid JSON line.
    TraceQuery q;
    std::string err;
    ASSERT_TRUE(parseTraceLine(std::string("{\"id\": \"a\x01") +
                                   "b\nc\", \"shape\": \"V\"}",
                               &q, &err))
        << err;
    ASSERT_EQ(q.id, std::string("a\x01") + "b\nc");
    const std::string line =
        formatResponseLine(q.id, ServiceLoop::Response{});
    EXPECT_NE(line.find("\"id\": \"a\\u0001b\\nc\""), std::string::npos)
        << line;
    for (const char c : line)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
}

/** Parse @p line, which must be rejected with a message. */
void
expectRejected(const std::string &line)
{
    TraceQuery q;
    std::string err;
    EXPECT_FALSE(parseTraceLine(line, &q, &err)) << line;
    EXPECT_FALSE(err.empty()) << line;
}

TEST(TraceWire, NumberMustBeTheWholeToken)
{
    expectRejected("{\"shape\": \"V\", \"devices\": 4-2}");
    expectRejected("{\"shape\": \"V\", \"devices\": 4e}");
    expectRejected("{\"shape\": \"V\", \"budget_sec\": 1.5.2}");
    expectRejected("{\"shape\": \"V\", \"budget_sec\": 1e999}");
}

TEST(TraceWire, IntegerKeysRejectOutOfRangeAndFractions)
{
    expectRejected("{\"shape\": \"V\", \"devices\": 1e300}");
    expectRejected("{\"shape\": \"V\", \"nr_cap\": -1e19}");
    expectRejected("{\"shape\": \"V\", \"devices\": 2147483648}");
    expectRejected("{\"shape\": \"V\", \"devices\": 2.5}");
    expectRejected("{\"shape\": \"V\", \"mem_limit\": 1e19}");
    expectRejected("{\"shape\": \"V\", \"fail_device\": \"1\"}");

    TraceQuery q;
    std::string err;
    ASSERT_TRUE(parseTraceLine("{\"shape\": \"V\", \"devices\": 8, "
                               "\"nr_cap\": -2147483648, "
                               "\"mem_limit\": 4e9}",
                               &q, &err))
        << err;
    EXPECT_EQ(q.devices, 8);
    EXPECT_EQ(q.nrCap, -2147483647 - 1);
    EXPECT_EQ(q.memLimit, 4000000000LL);
}

TEST(TraceWire, DuplicateKeyRejected)
{
    expectRejected("{\"shape\": \"V\", \"devices\": 4, \"devices\": 8}");
    expectRejected("{\"shape\": \"V\", \"shape\": \"X\"}");
    expectRejected("{\"shape\": \"V\", \"extra\": 1, \"extra\": 1}");
}

/** The lines `tessel_service --emit-trace [--chaos]` prints. */
std::vector<std::string>
referenceTraceLines(bool chaos)
{
    std::vector<std::string> lines;
    int n = 0;
    for (const std::string shape : {"V", "X", "M", "NN", "K"}) {
        for (const std::string v : {"homogeneous", "mem-capped", "hetero"}) {
            TraceQuery q;
            q.id = "q" + std::to_string(++n);
            q.shape = shape;
            q.variant = v;
            if (chaos && v == "hetero" && shape == "V") {
                q.failDevice = 1;
            } else if (chaos && v == "hetero") {
                q.driftDevice = 1;
                q.driftSpeed = 2.0;
            } else if (chaos && v == "mem-capped") {
                q.driftSrc = 0;
                q.driftDst = 1;
                q.driftLatency = 2.0;
                q.driftTimePerMB = 0.5;
            } else if (chaos) {
                q.driftDevice = 0;
                q.driftSpeed = 1.25;
            }
            lines.push_back(formatTraceLine(q));
        }
    }
    return lines;
}

TEST(TraceWire, ReferenceAndChaosLinesRoundTrip)
{
    for (const bool chaos : {false, true}) {
        for (const std::string &line : referenceTraceLines(chaos)) {
            TraceQuery q;
            std::string err;
            ASSERT_TRUE(parseTraceLine(line, &q, &err)) << line << ": " << err;
            EXPECT_EQ(formatTraceLine(q), line);
        }
    }
}

TEST(TraceWire, MutatedLinesNeverCrashAndAlwaysExplain)
{
    // Seeded and deterministic: every mutant either parses or is
    // rejected with a message. Truncations, duplicated keys and bad
    // integers must be rejected.
    static const char *kHuge[] = {"1e300",       "-1e19", "1e19",
                                  "2147483648",  "1e999", "4-2",
                                  "-2147483649", "0.5"};
    std::vector<std::string> lines = referenceTraceLines(false);
    for (const std::string &line : referenceTraceLines(true))
        lines.push_back(line);
    lines.push_back("{\"id\": \"stats1\", \"cmd\": \"stats\"}");
    Rng rng(16);
    int parsed = 0, rejected = 0;
    for (const std::string &line : lines) {
        const bool has_devices =
            line.find("\"devices\": ") != std::string::npos;
        for (int round = 0; round < 64; ++round) {
            std::string m = line;
            bool must_reject = true;
            int64_t op = rng.range(0, 3);
            if (op == 2 && !has_devices)
                op = 3;
            switch (op) {
            case 0: // Truncate: the closing brace is always lost.
                m.resize(rng.range(0, line.size() - 1));
                break;
            case 1: { // Flip one byte to any other value.
                const size_t at = rng.range(0, line.size() - 1);
                m[at] = static_cast<char>(m[at] ^ rng.range(1, 255));
                must_reject = false;
                break;
            }
            case 2: { // Splice a bad integer into "devices".
                const size_t at = m.find("\"devices\": ") + 11;
                m.replace(at, m.find(',', at) - at,
                          kHuge[rng.range(0, 7)]);
                break;
            }
            default: // Repeat the first key/value pair.
                m.insert(m.size() - 1,
                         ", " + m.substr(1, m.find(',') - 1));
                break;
            }
            TraceQuery q;
            std::string err;
            if (parseTraceLine(m, &q, &err)) {
                EXPECT_FALSE(must_reject) << m;
                ++parsed;
            } else {
                EXPECT_FALSE(err.empty()) << m;
                ++rejected;
            }
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace tessel
