/**
 * @file
 * planbench: the repository's planning benchmark.
 *
 *   planbench --workload cold|hot|drift --seed N --seconds S --trace 0|1
 *             [--workdir DIR] [--trace-dir DIR]
 *
 * Drives the planning daemon's real path with a seeded JSONL stream
 * (see workload.h and perfbench/README.md), checks every answer, and
 * prints as its last stdout line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. Exits 1 on any
 * correctness failure or a failed set-up, 2 on bad arguments.
 * `planbench --init-probe` is the process-start probe that set-up spawns.
 */

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client.h"
#include "json.h"
#include "ledger.h"
#include "support/metrics.h"
#include "support/timer.h"
#include "support/tracing.h"
#include "workload.h"

using namespace tessel;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

struct Args
{
    std::string self; ///< argv[0], spawned for the process-init probes
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string traceDir = ".bench_build/traces";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = std::stoull(v);
        else if (k == "--seconds")
            a->seconds = std::stod(v);
        else if (k == "--trace")
            a->trace = v == "1";
        else if (k == "--workdir")
            a->workdir = v;
        else if (k == "--trace-dir")
            a->traceDir = v;
        else
            return false;
    }
    return (argc % 2 == 1) &&
           (a->workload == "cold" || a->workload == "hot" ||
            a->workload == "drift") &&
           a->seconds > 0.0;
}

/** Set-ups per run (setup_s counts their median). A hot or drift
 * set-up is a full cold search of the reference queries, about 11 s, so
 * they get two: a third would add another 11 s to every run. */
constexpr int kColdSetups = 101;
constexpr int kStoreSetups = 2;
/** Process starts per run (setup_s counts their median too). */
constexpr int kInitProbes = 21;
constexpr size_t kHotStreamLength = 1 << 20;

/** The process-wide state built on first use: the flight recorder and
 * the metrics registry. */
void
initProcessState()
{
    TraceRecorder::instance().nowMicros();
    MetricsRegistry::instance();
}

/** --init-probe: initialize, then write one byte to stdout to say so. */
int
initProbe()
{
    initProcessState();
    return write(STDOUT_FILENO, "r", 1) == 1 ? 0 : 1;
}

/**
 * Seconds from spawning @p self with --init-probe until it reports its
 * initialization done: exec, dynamic loading, static constructors and
 * initProcessState(), without the child's exit.
 */
double
timeProcessInit(const std::string &self)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string flag = "--init-probe";
    std::string path = self;
    char *child_argv[] = {path.data(), flag.data(), nullptr};
    const Stopwatch watch;
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, path.c_str(), &actions, nullptr, child_argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    double sec = -1.0;
    char byte = 0;
    if (rc == 0 && read(fds[0], &byte, 1) == 1)
        sec = watch.seconds();
    close(fds[0]);
    int status = 0;
    if (rc == 0 && (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
                    WEXITSTATUS(status) != 0))
        sec = -1.0;
    if (sec < 0.0)
        throw std::runtime_error("process-init probe of " + self + " failed");
    return sec;
}

Pinned
pinnedFor(const std::string &workload)
{
    // Single-threaded searches and at most three busy threads leave a
    // core of the 4 for the rest of the machine, which keeps the
    // figures steady on a shared host.
    Pinned p;
    if (workload == "hot") {
        // No search runs: two workers plus the feeder. Two queries wait
        // queued beside the two in service, so a worker finishing an
        // answer picks up the next one without waiting for the feeder.
        p.workers = 2;
        p.window = 4;
        // Below the 15-instance working set: evictions and disk loads.
        p.memoryCapacity = 8;
    }
    return p;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/**
 * Answers per second, budget-cut searches left out (see timedPart).
 * Cold and drift: the timed answers over their wall time in whole
 * passes. Hot (one long stream): the median over ten equal windows, so
 * a burst of load from elsewhere on the host moves one window, not the
 * figure.
 */
double
throughput(const Tally &tally, const Timed &timed)
{
    if (timed.wallSec <= 0.0)
        return 0.0;
    if (timed.cut > 0 || tally.answers.size() != tally.attempted ||
        tally.attempted < 1000)
        return static_cast<double>(timed.latencyMs.size()) / timed.wallSec;
    constexpr int kWindows = 10;
    const double width = tally.wallSec / kWindows;
    std::vector<double> rates(kWindows, 0.0);
    for (const Answer &a : tally.answers)
        rates[std::min(kWindows - 1, static_cast<int>(a.doneSec / width))] +=
            1.0;
    for (double &r : rates)
        r /= width;
    std::cout << "throughput windows (1/s):";
    for (double r : rates)
        std::cout << " " << static_cast<long>(r);
    std::cout << "\n";
    return quantile(rates, 0.5);
}

/** One run of one workload: set-up, measured phase(s), report. */
class Bench
{
  public:
    explicit Bench(const Args &args)
        : args_(args), pinned_(pinnedFor(args.workload))
    {
    }

    ~Bench()
    {
        daemon_.reset();
        std::error_code ec;
        fs::remove_all(args_.workdir, ec);
    }

    /**
     * kInitProbes timed process starts, then the workload's set-up
     * kColdSetups / kStoreSetups times. setup_s is the median process
     * start plus the median set-up.
     */
    void setup();

    /**
     * The measured phase: phaseCount() cold passes or drift episodes,
     * or one hot stream of args.seconds. Phase 0 runs on the state
     * setup() left; later phases start from fresh state.
     */
    void measure(Tally *tally, WireTimers *timers, bool keep_rows,
                 std::map<std::string, uint64_t> *registry_delta);

    /** Reset to the state right after setup (fresh daemon, fresh copy
     * of the store), for the traced repeat of the measured phase. */
    void reset() { prepare(0); }

    /** Measured phases per run: one hot stream, or as many whole cold
     * passes (about 11 s each, at least two) or drift episodes (about
     * 5 s each) as fit --seconds. Fixed in advance, so a slow pass
     * never changes how many run. */
    int phaseCount() const;

    void printContext() const;
    int report(const Tally &tally) const;
    int reportTraced(const Tally &untraced, const Tally &traced,
                     const WireTimers &wire,
                     const std::map<std::string, uint64_t> &registry_delta,
                     std::vector<SpanRecord> spans, uint64_t recorded);

  private:
    std::string freshDir(const std::string &prefix);
    void dropDaemon();
    /** Open the daemon and lines of measured phase @p index. */
    void prepare(int index);
    Client::FeedPlan plan(bool measured, bool keep_rows) const;
    /** Attempted and failed over the whole run (set-up included). */
    std::string resultLine(const std::vector<Metric> &metrics) const;

    Args args_;
    Pinned pinned_;
    Client client_;
    /** Spawn until initialized, of each process-init probe. */
    std::vector<double> initSec_;
    int dirSeq_ = 0;
    std::vector<double> setupSec_;
    std::string golden_; ///< populated store (hot, drift)
    HotStream hot_;
    std::unique_ptr<ServiceLoop> daemon_;
    std::string daemonDir_;
    std::vector<std::string> lines_;
    uint64_t setupAttempted_ = 0;
    uint64_t measuredAttempted_ = 0;
};

std::string
Bench::freshDir(const std::string &prefix)
{
    // Not created: the store creates its directory on the first put,
    // as a daemon started on a new cache directory does.
    const fs::path dir =
        fs::path(args_.workdir) / (prefix + "-" + std::to_string(dirSeq_++));
    fs::remove_all(dir);
    return dir.string();
}

void
Bench::dropDaemon()
{
    daemon_.reset();
    if (!daemonDir_.empty() && daemonDir_ != golden_)
        fs::remove_all(daemonDir_);
    daemonDir_.clear();
}

Client::FeedPlan
Bench::plan(bool measured, bool keep_rows) const
{
    Client::FeedPlan p;
    p.seconds = args_.seconds;
    p.window = pinned_.window;
    p.measured = measured;
    p.keepRows = keep_rows;
    return p;
}

void
Bench::prepare(int index)
{
    dropDaemon();
    if (args_.workload == "cold") {
        client_.beginScope();
        daemonDir_ = freshDir("cold");
        lines_ = coldPass(args_.seed, index);
    } else if (args_.workload == "hot") {
        daemonDir_ = golden_;
    } else {
        client_.beginScope();
        daemonDir_ = freshDir("episode");
        fs::copy(golden_, daemonDir_, fs::copy_options::recursive);
        // Only the last episode ends with the stale replan: the run
        // then waits once for its background search.
        lines_ = driftEpisode(args_.seed, index, index + 1 == phaseCount());
    }
    daemon_ = client_.openDaemon(daemonDir_, pinned_.workers,
                                 pinned_.memoryCapacity);
}

void
Bench::setup()
{
    fs::remove_all(args_.workdir);
    fs::create_directories(args_.workdir);
    for (int i = 0; i < kInitProbes; ++i)
        initSec_.push_back(timeProcessInit(args_.self));
    // Build the process-wide state here, so the first measured query
    // does not pay.
    initProcessState();
    if (args_.workload == "cold") {
        for (int i = 0; i < kColdSetups; ++i) {
            dropDaemon();
            const Stopwatch watch;
            prepare(0);
            setupSec_.push_back(watch.seconds());
        }
        return;
    }
    std::string previous;
    for (int i = 0; i < kStoreSetups; ++i) {
        dropDaemon();
        if (!previous.empty())
            fs::remove_all(previous);
        const Stopwatch watch;
        // Populate: the reference queries, answered cold through a
        // daemon, in seeded order.
        client_.beginScope();
        golden_ = freshDir("golden");
        Tally populate;
        {
            std::unique_ptr<ServiceLoop> loader =
                client_.openDaemon(golden_, 1, 256);
            Client::FeedPlan p;
            p.window = 1;
            client_.feed(*loader, coldPass(args_.seed, 1000 + i), nullptr, p,
                         &populate);
        }
        // Reopen as a fresh daemon, with the workload's stream ready.
        if (args_.workload == "hot")
            hot_ = hotStream(args_.seed, kHotStreamLength);
        prepare(0);
        setupSec_.push_back(watch.seconds());
        setupAttempted_ += populate.attempted;
        client_.verifyNew(daemon_->service().cache());
        previous = golden_;
        // Return the searches' freed heap to the OS, so repeating the
        // set-up does not pile fragmentation into peak_rss_mb: the peak
        // stays that of one set-up plus the measured phase.
        malloc_trim(0);
    }
}

void
Bench::measure(Tally *tally, WireTimers *timers, bool keep_rows,
               std::map<std::string, uint64_t> *registry_delta)
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    auto counters = [&reg] {
        std::map<std::string, uint64_t> out;
        for (const MetricSample &s : reg.snapshot().samples)
            if (s.kind == MetricSample::Kind::Counter)
                out[s.name] += s.counterValue;
        return out;
    };
    for (int index = 0;; ++index) {
        if (index > 0)
            prepare(index);
        std::map<std::string, uint64_t> before;
        if (registry_delta)
            before = counters();
        if (args_.workload == "hot")
            client_.feed(*daemon_, hot_.lines, &hot_.order,
                         plan(true, keep_rows), tally, timers);
        else
            client_.feed(*daemon_, lines_, nullptr, plan(true, keep_rows),
                         tally, timers);
        tally->addDaemon(*daemon_);
        if (registry_delta)
            for (const auto &[name, value] : counters())
                (*registry_delta)[name] += value - before[name];
        // A stale answer leaves its search running; it publishes to the
        // store when done. Not part of the measured wall time.
        daemon_->service().waitBackgroundReplans();
        client_.verifyNew(daemon_->service().cache());
        if (index + 1 >= phaseCount())
            break;
    }
    measuredAttempted_ += tally->attempted;
}

int
Bench::phaseCount() const
{
    if (args_.workload == "hot")
        return 1;
    // Cold: at least two passes, as the timed part of a pass (the 14
    // searches no budget cuts) is only about 1.5 s.
    const bool cold = args_.workload == "cold";
    return std::max(cold ? 2 : 1, static_cast<int>(std::lround(
                                      args_.seconds / (cold ? 11.0 : 5.0))));
}

void
Bench::printContext() const
{
    std::ostringstream os;
    os << "context: {\"workload\": " << jsonString(args_.workload)
       << ", \"seed\": " << args_.seed
       << ", \"seconds\": " << jsonNumber(args_.seconds)
       << ", \"trace\": " << (args_.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"feeder_threads\": 1"
       << ", \"loop_workers\": " << pinned_.workers
       << ", \"window\": " << pinned_.window
       << ", \"sweep_threads\": " << kSweepThreads
       << ", \"memory_tier\": " << pinned_.memoryCapacity
       << ", \"replan_budget_sec\": "
       << jsonNumber(ServiceOptions{}.replanBudgetSec)
       << ", \"query_budget_sec\": " << jsonNumber(kBudgetSec)
       << ", \"devices\": " << kDevices
       << ", \"makespan_n\": " << Client::kMakespanMicrobatches
       << ", \"measured_phases\": " << phaseCount()
       << ", \"setups\": "
       << (args_.workload == "cold" ? kColdSetups : kStoreSetups)
       << ", \"init_probes\": " << kInitProbes
#ifdef NDEBUG
       << ", \"ndebug\": true"
#else
       << ", \"ndebug\": false"
#endif
       << "}";
    std::cout << os.str() << "\n";
}

std::string
Bench::resultLine(const std::vector<Metric> &metrics) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (client_.failures() == 0 ? "true" : "false")
       << ", \"attempted\": "
       << std::max<uint64_t>(1, setupAttempted_ + measuredAttempted_)
       << ", \"failed\": " << client_.failures() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    os << "}}";
    return os.str();
}

/** Correctness summary shared by both modes; @return the exit code. */
int
correctnessSummary(const Client &client, uint64_t attempted)
{
    const uint64_t failed = client.failures();
    std::cout << "correctness: " << attempted << " answers attempted, "
              << failed << " failed, failed_share = "
              << (attempted ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0)
              << "; " << client.distinctMeasured()
              << " distinct measured instances verified; plan digest "
              << client.planDigest() << " (leaves out "
              << client.budgetCutMeasured()
              << " served a budget-cut plan)\n";
    for (const std::string &note : client.failureNotes())
        std::cout << "  FAILED: " << note << "\n";
    return failed == 0 ? 0 : 1;
}

int
Bench::report(const Tally &tally) const
{
    const int code =
        correctnessSummary(client_, setupAttempted_ + measuredAttempted_);
    const Timed timed = timedPart(tally, client_);
    const size_t n = timed.latencyMs.size();
    std::cout << "measured: " << tally.attempted << " answers in "
              << tally.wallSec << " s; sources:";
    for (const auto &[source, count] : tally.bySource)
        std::cout << " " << source << "=" << count;
    std::cout << "; stale=" << tally.stale
              << " degraded=" << tally.degraded << "; phase walls (s):";
    for (double s : tally.feedWallSec)
        std::cout << " " << s;
    std::cout << "\n";
    const StoreStats &st = tally.store;
    const double lookups =
        static_cast<double>(st.memoryHits + st.diskHits + st.misses);
    auto share = [lookups](uint64_t count) {
        return lookups > 0.0 ? static_cast<double>(count) / lookups : 0.0;
    };
    std::cout << "store lookups: memory hits " << st.memoryHits << " ("
              << share(st.memoryHits) << "), disk hits " << st.diskHits
              << " (" << share(st.diskHits) << "), misses " << st.misses
              << " (" << share(st.misses) << "), evictions " << st.evictions
              << "\n";
    std::cout << "timed: " << n << " answers in " << timed.wallSec
              << " s; left out " << timed.cut
              << " budget-cut searches taking " << timed.cutSec << " s\n";
    if (args_.workload != "hot") {
        // Per cold pass or drift episode (one store scope each).
        std::map<uint64_t, double> scope_ms;
        for (const Answer &a : tally.answers)
            if (!client_.budgetCut(a))
                scope_ms[a.scope] += a.latencyMs;
        std::cout << "timed answer time per phase (s):";
        for (const auto &[scope, ms] : scope_ms)
            std::cout << " " << ms / 1e3;
        std::cout << "\n";
    }
    for (double q : {0.5, 0.9, 0.99}) {
        const double beyond = static_cast<double>(n) * (1.0 - q);
        const std::string name =
            "answer_ms_p" + std::to_string(static_cast<int>(q * 100));
        if (beyond >= 10.0)
            std::cout << name << " = " << quantile(timed.latencyMs, q)
                      << " ms (n=" << n << ")\n";
        else
            std::cout << name << ": not reported, only " << beyond
                      << " of n=" << n << " answers lie beyond it\n";
    }
    std::cout << "setup_s = median of " << initSec_.size()
              << " process starts (min " << quantile(initSec_, 0.0)
              << ", p50 " << quantile(initSec_, 0.5) << ", max "
              << quantile(initSec_, 1.0) << ") + median of "
              << setupSec_.size() << " set-ups (min "
              << quantile(setupSec_, 0.0) << ", p50 "
              << quantile(setupSec_, 0.5) << ", max "
              << quantile(setupSec_, 1.0) << ")\n";
    std::vector<Metric> metrics = {
        {"setup_s", quantile(initSec_, 0.5) + quantile(setupSec_, 0.5), "s"},
        {"queries_per_s", throughput(tally, timed), "1/s"},
        {"answer_ms_mean", mean(timed.latencyMs), "ms"},
        {"plan_makespan_sum", client_.makespanSum(), "tick"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    for (const Metric &m : metrics)
        std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
    std::cout << resultLine(metrics) << "\n";
    return code;
}

int
Bench::reportTraced(const Tally &untraced, const Tally &traced,
                    const WireTimers &wire,
                    const std::map<std::string, uint64_t> &registry_delta,
                    std::vector<SpanRecord> spans, uint64_t recorded)
{
    daemon_.reset(); // the probes read its store directory
    LedgerInputs in;
    in.workload = args_.workload;
    in.pinned = pinned_;
    in.client = &client_;
    in.untraced = &untraced;
    in.traced = &traced;
    in.spans = std::move(spans);
    in.spansRecorded = recorded;
    in.registryDelta = registry_delta;
    in.wire = wire;
    in.storeDir = daemonDir_;
    in.scratchDir = freshDir("probe");
    in.phaseBudgetSec = std::min(5.0, kBudgetSec);
    const LedgerReport ledger = buildLedger(in);
    std::cout << ledger.text;

    fs::create_directories(args_.traceDir);
    const std::string stem = (fs::path(args_.traceDir) /
                              (args_.workload + "-seed" +
                               std::to_string(args_.seed)))
                                 .string();
    std::ofstream(stem + ".ledger.json") << ledger.json;
    std::string err;
    if (writeChromeTrace(TraceRecorder::instance(), stem + ".trace.json",
                         &err))
        std::cout << "ledger: " << stem << ".ledger.json, spans: " << stem
                  << ".trace.json\n";

    const int code =
        correctnessSummary(client_, setupAttempted_ + measuredAttempted_);
    std::cout << resultLine(ledger.metrics) << "\n";
    return code;
}

/** One run: set-up, the measured phase, and for --trace 1 its traced
 * repeat. @return the exit code. */
int
run(const Args &args)
{
    Bench bench(args);
    bench.printContext();
    bench.setup();
    Tally untraced;
    bench.measure(&untraced, nullptr, false, nullptr);
    if (!args.trace)
        return bench.report(untraced);

    // Traced repeat of the measured phase from the same starting state:
    // the program's flight recorder on, the wire layer timed, one row
    // per answer.
    bench.reset();
    TraceRecorder &recorder = TraceRecorder::instance();
    const uint64_t recorded_before = recorder.recorded();
    recorder.setEnabled(true);
    Tally traced;
    WireTimers wire;
    std::map<std::string, uint64_t> registry_delta;
    bench.measure(&traced, &wire, true, &registry_delta);
    recorder.setEnabled(false);
    return bench.reportTraced(untraced, traced, wire, registry_delta,
                              recorder.collect(),
                              recorder.recorded() - recorded_before);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc == 2 && std::string(argv[1]) == "--init-probe")
        return initProbe();
    Args args;
    args.self = argv[0];
    bool ok = false;
    try {
        ok = parseArgs(argc, argv, &args);
    } catch (const std::exception &) {
        ok = false;
    }
    if (!ok) {
        std::cerr << "usage: planbench --workload cold|hot|drift --seed N "
                     "--seconds S --trace 0|1 [--workdir DIR] "
                     "[--trace-dir DIR]\n";
        return 2;
    }

    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "planbench: " << e.what() << "\n";
        return 1;
    }
}
