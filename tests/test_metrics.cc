/**
 * @file
 * Metrics registry and flight-recorder tracing tests: exact counts
 * under concurrent hammering, le-inclusive histogram bucketing and
 * quantile interpolation, Prometheus exposition golden (mangling,
 * suffixes, label escaping), the global enable switch, snapshot-time
 * collectors, ring-buffer wraparound, span nesting, and
 * snapshot-while-writing consistency.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.h"
#include "support/tracing.h"

namespace tessel {
namespace {

/** Force the global enable switch for a scope and restore it after
 *  (tests share one process-global flag). */
struct ScopedMetricsEnabled
{
    explicit ScopedMetricsEnabled(bool on)
        : previous(MetricsRegistry::enabled())
    {
        MetricsRegistry::setEnabled(on);
    }
    ~ScopedMetricsEnabled() { MetricsRegistry::setEnabled(previous); }
    const bool previous;
};

const MetricSample *
findSample(const MetricsSnapshot &snap, const std::string &name,
           const std::string &labelValue = "")
{
    for (const MetricSample &s : snap.samples)
        if (s.name == name && s.labelValue == labelValue)
            return &s;
    return nullptr;
}

// ----------------------------------------------------------- Counter

TEST(Metrics, CounterConcurrentHammerIsExact)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Counter *c = reg.counter("test.hammer");
    constexpr int kThreads = 8;
    constexpr uint64_t kIncrements = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([c] {
            for (uint64_t i = 0; i < kIncrements; ++i)
                c->inc();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c->value(), kThreads * kIncrements);
}

TEST(Metrics, CounterDisabledIsNoOp)
{
    MetricsRegistry reg;
    Counter *c = reg.counter("test.noop");
    {
        ScopedMetricsEnabled off(false);
        c->inc(1000);
    }
    EXPECT_EQ(c->value(), 0u);
    {
        ScopedMetricsEnabled on(true);
        c->inc(3);
    }
    EXPECT_EQ(c->value(), 3u);
}

TEST(Metrics, RegistrationReturnsStableHandles)
{
    MetricsRegistry reg;
    Counter *a = reg.counter("test.same");
    Counter *b = reg.counter("test.same");
    EXPECT_EQ(a, b);
    // Distinct label values are distinct series.
    Counter *l1 = reg.counter("test.labelled", "k", "v1");
    Counter *l2 = reg.counter("test.labelled", "k", "v2");
    EXPECT_NE(l1, l2);
    EXPECT_EQ(l1, reg.counter("test.labelled", "k", "v1"));
}

// ------------------------------------------------------------- Gauge

TEST(Metrics, GaugeSetMaxIsMonotone)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Gauge *g = reg.gauge("test.highwater");
    g->setMax(5);
    g->setMax(3);
    EXPECT_EQ(g->value(), 5);
    g->setMax(9);
    EXPECT_EQ(g->value(), 9);
    g->set(2);
    EXPECT_EQ(g->value(), 2);
    g->add(4);
    EXPECT_EQ(g->value(), 6);
}

// --------------------------------------------------------- Histogram

TEST(Metrics, HistogramBucketBoundariesAreLeInclusive)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Histogram *h = reg.histogram("test.hist", {1.0, 10.0, 100.0});
    h->observe(0.5);   // bucket 0 (<= 1)
    h->observe(1.0);   // bucket 0: le-buckets are inclusive
    h->observe(1.001); // bucket 1
    h->observe(10.0);  // bucket 1
    h->observe(100.0); // bucket 2
    h->observe(500.0); // overflow
    const MetricsSnapshot snap = reg.snapshot();
    const MetricSample *s = findSample(snap, "test.hist");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->counts.size(), 4u);
    EXPECT_EQ(s->counts[0], 2u);
    EXPECT_EQ(s->counts[1], 2u);
    EXPECT_EQ(s->counts[2], 1u);
    EXPECT_EQ(s->counts[3], 1u);
    EXPECT_EQ(s->count, 6u);
    EXPECT_NEAR(s->sum, 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 500.0, 1e-6);
}

TEST(Metrics, HistogramQuantileInterpolates)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Histogram *h = reg.histogram("test.quant", {10.0, 20.0, 40.0});
    // 10 observations uniformly into (10, 20]: the q-quantile should
    // interpolate linearly inside that bucket.
    for (int i = 0; i < 10; ++i)
        h->observe(15.0);
    const MetricsSnapshot snap = reg.snapshot();
    const MetricSample *s = findSample(snap, "test.quant");
    ASSERT_NE(s, nullptr);
    EXPECT_NEAR(histogramQuantile(*s, 0.5), 15.0, 1e-9);
    EXPECT_NEAR(histogramQuantile(*s, 1.0), 20.0, 1e-9);
    // Ranks landing in the overflow bucket clamp to the last finite
    // bound instead of inventing an upper edge.
    h->observe(1000.0);
    const MetricsSnapshot snap2 = reg.snapshot();
    const MetricSample *s2 = findSample(snap2, "test.quant");
    ASSERT_NE(s2, nullptr);
    EXPECT_NEAR(histogramQuantile(*s2, 0.999), 40.0, 1e-9);
    // Empty histogram: 0.
    Histogram *empty = reg.histogram("test.quant_empty", {1.0});
    (void)empty;
    const MetricsSnapshot snap3 = reg.snapshot();
    const MetricSample *s3 = findSample(snap3, "test.quant_empty");
    ASSERT_NE(s3, nullptr);
    EXPECT_EQ(histogramQuantile(*s3, 0.5), 0.0);
}

// ----------------------------------------------------- Prometheus text

TEST(Metrics, PrometheusExpositionGolden)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    reg.counter("store.memory_hits")->inc(7);
    reg.counter("loop.rejected", "verdict", "queue-full")->inc(2);
    reg.gauge("loop.queue_depth")->set(3);
    reg.histogram("svc.ms", {1.0, 5.0})->observe(1.0);
    reg.histogram("svc.ms", {1.0, 5.0})->observe(2.0);
    const std::string text = toPrometheus(reg.snapshot());
    const std::string expected =
        "# TYPE loop_queue_depth gauge\n"
        "loop_queue_depth 3\n"
        "# TYPE loop_rejected_total counter\n"
        "loop_rejected_total{verdict=\"queue-full\"} 2\n"
        "# TYPE store_memory_hits_total counter\n"
        "store_memory_hits_total 7\n"
        "# TYPE svc_ms histogram\n"
        "svc_ms_bucket{le=\"1\"} 1\n"
        "svc_ms_bucket{le=\"5\"} 2\n"
        "svc_ms_bucket{le=\"+Inf\"} 2\n"
        "svc_ms_sum 3\n"
        "svc_ms_count 2\n";
    EXPECT_EQ(text, expected);
}

TEST(Metrics, PrometheusEscapesLabelValues)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    reg.counter("test.esc", "tenant", "a\"b\\c\nd")->inc();
    const std::string text = toPrometheus(reg.snapshot());
    EXPECT_NE(text.find("tenant=\"a\\\"b\\\\c\\nd\""), std::string::npos)
        << text;
}

TEST(Metrics, JsonExposesDottedNamesAndHistograms)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    reg.counter("store.misses")->inc(4);
    reg.histogram("svc.ms", {1.0})->observe(0.5);
    const std::string json = toJson(reg.snapshot());
    EXPECT_NE(json.find("\"name\": \"store.misses\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"value\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"counts\": [1, 0]"), std::string::npos) << json;
}

// --------------------------------------------------------- Collectors

TEST(Metrics, CollectorsRunAtSnapshotAndAreRemovable)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Counter *mirrored = reg.counter("test.mirrored");
    uint64_t external = 0, lastMirrored = 0;
    const int id = reg.addCollector([&] {
        mirrored->inc(external - lastMirrored);
        lastMirrored = external;
    });
    external = 5;
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(findSample(snap, "test.mirrored")->counterValue, 5u);
    external = 9; // delta publishing: only +4 on the next snapshot
    snap = reg.snapshot();
    EXPECT_EQ(findSample(snap, "test.mirrored")->counterValue, 9u);
    reg.removeCollector(id);
    external = 100;
    snap = reg.snapshot();
    EXPECT_EQ(findSample(snap, "test.mirrored")->counterValue, 9u);
}

TEST(Metrics, SnapshotWhileWritingSeesConsistentTotals)
{
    ScopedMetricsEnabled on(true);
    MetricsRegistry reg;
    Counter *c = reg.counter("test.live");
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed))
            c->inc();
    });
    uint64_t last = 0;
    for (int i = 0; i < 200; ++i) {
        const MetricsSnapshot snap = reg.snapshot();
        const MetricSample *s = findSample(snap, "test.live");
        ASSERT_NE(s, nullptr);
        // Counter totals must be monotone across snapshots taken
        // concurrently with the writer.
        EXPECT_GE(s->counterValue, last);
        last = s->counterValue;
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    EXPECT_EQ(c->value(), c->value());
}

// ------------------------------------------------------------ Tracing

TEST(Tracing, RingWraparoundKeepsMostRecent)
{
    TraceRecorder rec(/*capacity=*/8);
    rec.setEnabled(true);
    for (uint64_t i = 0; i < 20; ++i) {
        SpanRecord r;
        r.name = "wrap";
        r.tsMicros = i;
        r.durMicros = 1;
        rec.record(r);
    }
    EXPECT_EQ(rec.recorded(), 20u);
    const std::vector<SpanRecord> spans = rec.collect();
    ASSERT_EQ(spans.size(), 8u);
    // Oldest first, and only the most recent capacity spans survive.
    for (size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].tsMicros, 12 + i);
}

TEST(Tracing, SpanNestingRecordsBothLevels)
{
    TraceRecorder rec(/*capacity=*/16);
    rec.setEnabled(true);
    {
        TraceSpan outer("outer", rec);
        outer.setLabel("q1");
        outer.setArg("value_sweeps", 42);
        {
            TraceSpan inner("inner", rec);
            inner.setArg("sat_checks", 7);
        }
    }
    const std::vector<SpanRecord> spans = rec.collect();
    ASSERT_EQ(spans.size(), 2u);
    // collect() orders by start time; spans with the same microsecond
    // timestamp keep ring order, so look both up by name instead.
    const SpanRecord *outerRec = nullptr, *innerRec = nullptr;
    for (const SpanRecord &s : spans) {
        if (std::string(s.name) == "outer")
            outerRec = &s;
        else if (std::string(s.name) == "inner")
            innerRec = &s;
    }
    ASSERT_NE(outerRec, nullptr);
    ASSERT_NE(innerRec, nullptr);
    EXPECT_EQ(std::string(outerRec->label), "q1");
    ASSERT_EQ(outerRec->nargs, 1u);
    EXPECT_STREQ(outerRec->argKey[0], "value_sweeps");
    EXPECT_EQ(outerRec->argValue[0], 42u);
    ASSERT_EQ(innerRec->nargs, 1u);
    EXPECT_STREQ(innerRec->argKey[0], "sat_checks");
    EXPECT_EQ(innerRec->argValue[0], 7u);
    // The outer span brackets the inner one.
    EXPECT_LE(outerRec->tsMicros, innerRec->tsMicros);
    EXPECT_GE(outerRec->tsMicros + outerRec->durMicros,
              innerRec->tsMicros + innerRec->durMicros);
}

TEST(Tracing, DisabledSpansCostNothingAndRecordNothing)
{
    TraceRecorder rec(/*capacity=*/4);
    rec.setEnabled(false);
    {
        TraceSpan span("ghost", rec);
        EXPECT_FALSE(span.active());
        span.setArg("k", 1); // must be a safe no-op
    }
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.collect().empty());
}

TEST(Tracing, RingBuiltOnFirstEnableAndKeptAcrossToggles)
{
    TraceRecorder rec(/*capacity=*/4);
    // Never enabled: no ring, so a direct record() is dropped.
    SpanRecord direct;
    direct.name = "early";
    rec.record(direct);
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.collect().empty());

    rec.setEnabled(true);
    {
        TraceSpan span("first", rec);
        EXPECT_TRUE(span.active());
    }
    std::vector<SpanRecord> spans = rec.collect();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "first");

    // Disable then re-enable keeps the ring and what it holds.
    rec.setEnabled(false);
    rec.setEnabled(true);
    {
        TraceSpan span("second", rec);
    }
    spans = rec.collect();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "first");
    EXPECT_STREQ(spans[1].name, "second");
}

TEST(Tracing, CollectWhileWritingDropsTornSlotsOnly)
{
    TraceRecorder rec(/*capacity=*/32);
    rec.setEnabled(true);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&rec, &stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                SpanRecord r;
                r.name = "load";
                r.durMicros = 1;
                rec.record(r);
            }
        });
    for (int i = 0; i < 100; ++i) {
        const std::vector<SpanRecord> spans = rec.collect();
        EXPECT_LE(spans.size(), rec.capacity());
        for (const SpanRecord &s : spans) {
            // A torn slot would show an arbitrary name pointer; every
            // collected span must be fully published.
            ASSERT_NE(s.name, nullptr);
            EXPECT_STREQ(s.name, "load");
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : writers)
        t.join();
}

TEST(Tracing, ChromeTraceJsonShape)
{
    TraceRecorder rec(/*capacity=*/4);
    rec.setEnabled(true);
    {
        TraceSpan span("phase-solve", rec);
        span.setLabel("V/hetero");
        span.setArg("sat_checks", 3);
    }
    const std::string json = toChromeTrace(rec.collect());
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u) << json;
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"phase-solve\""), std::string::npos);
    EXPECT_NE(json.find("\"sat_checks\": 3"), std::string::npos);
    EXPECT_NE(json.find("V/hetero"), std::string::npos);
}

} // namespace
} // namespace tessel
