/**
 * @file
 * Closed-loop client for the planning daemon. It feeds JSONL lines
 * through the daemon's real path (parseTraceLine -> makeTraceQuery /
 * makeTraceReplan -> ServiceLoop::submit -> formatResponseLine), keeps
 * at most `window` queries in flight, and checks every answer: found,
 * accepted, and carrying the same plan_hash as every earlier answer for
 * its fingerprint on the same store. verifyNew() later re-checks each
 * distinct served plan with the verification oracle.
 */

#ifndef PERFBENCH_CLIENT_H
#define PERFBENCH_CLIENT_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "service/trace.h"

namespace perfbench {

/** TesselOptions::numThreads of every search the benchmark runs
 * (plan-invariant, not hashed). Printed on the context line. */
constexpr int kSweepThreads = 1;

/** Thread and sizing settings, fixed per workload and printed. */
struct Pinned
{
    int workers = 1;        ///< ServiceLoop dispatch workers
    int window = 1;         ///< queries in flight (closed loop)
    size_t memoryCapacity = 256; ///< memory-tier size of the measured daemon
};

/** Interpolated @p q-quantile (0..1) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** A JSONL line turned into what the daemon is asked to answer. */
struct BuiltQuery
{
    std::string id;
    std::string tenant;
    tessel::PlanQuery query;                    ///< plain queries
    std::optional<tessel::ReplanRequest> replan; ///< drift / failure lines

    /** The instance the answer is for (the drifted or survivor query
     * for replans, see makeDriftedQuery). */
    tessel::PlanQuery answered() const;
    /** Pin TesselOptions::numThreads (plan-invariant, not hashed). */
    void pinThreads(int threads);
};

/** Build what a parsed trace line asks for, the way the daemon does. */
bool buildQuery(const tessel::TraceQuery &tq, BuiltQuery *out,
                std::string *err);

/** Parse and build @p line the way the daemon does. */
bool buildFromLine(const std::string &line, BuiltQuery *out,
                   std::string *err);

/** Running sum of one timed call site. */
struct Accum
{
    double sum = 0.0;
    uint64_t count = 0;
    void add(double v)
    {
        sum += v;
        ++count;
    }
    double
    mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Benchmark-side timers of the wire layer (traced runs only). */
struct WireTimers
{
    Accum parseUs;
    Accum buildUs;
    Accum formatUs;
};

/**
 * A distinct served plan: (store scope, fingerprint hex, stale). A scope
 * is one store as the benchmark created it (a set-up's population, a
 * cold pass's empty store, a drift episode's copy); within it every
 * answer for an instance must carry the same plan.
 */
using SeenKey = std::tuple<uint64_t, std::string, bool>;

/** One distinct served plan -> what was served. */
struct Seen
{
    std::string line; ///< a JSONL line that produced it
    std::string planHash;
    bool measured = false;
    bool verified = false;
    double makespan = 0.0;
    /** Effort counters of the search that produced the plan, as
     * stored with it. */
    tessel::SearchBreakdown breakdown;
    /** A measured answer for it ran a search (fresh or stale). */
    bool searchedHere = false;
    /** The search that produced the fresh plan ran into a wall-clock
     * budget (a phase total at the per-phase budget, or the total
     * budget tripped): the plan and its times depend on the
     * machine. */
    bool budgetCut = false;
};

/** One answer of a measured phase. */
struct Answer
{
    double latencyMs = 0.0;
    /** Completion time, seconds since its feed began. */
    double doneSec = 0.0;
    /** latency minus the service's own answer time (queue + dispatch). */
    double queueWaitMs = 0.0;
    /** Store scope the answer was served in (see SeenKey). */
    uint64_t scope = 0;
    /** The served plan's entry in Client::seen(), which never erases
     * one; nullptr for a failed answer. A pointer, not a SeenKey: a
     * string kept per answer fragments the heap the daemon allocates
     * from, and slowed hot's stream threefold within seconds. */
    const Seen *seen = nullptr;
    /** Answered by a fresh search (not a hit, not stale). */
    bool searched = false;
};

/** One answered query, kept for the per-query rows. */
struct AnswerRow
{
    std::string label;
    std::string source;
    const Seen *seen = nullptr; ///< as in Answer
    double latencyMs = 0.0;
    uint64_t submitUs = 0; ///< flight-recorder clock
    uint64_t doneUs = 0;
    bool replanned = false;
    bool stale = false;
    bool degraded = false;
};

/** What one measured phase produced. */
struct Tally
{
    uint64_t attempted = 0;
    double wallSec = 0.0;
    /** Wall time of each feed (cold pass, drift episode, hot stream). */
    std::vector<double> feedWallSec;
    std::vector<Answer> answers;
    std::map<std::string, uint64_t> bySource;
    uint64_t stale = 0;
    uint64_t degraded = 0;
    uint64_t searched = 0; ///< answers that ran a search (fresh or stale)
    uint64_t seeded = 0;   ///< ... of which warm-started from a stored plan
    std::vector<AnswerRow> rows; ///< only when rows are kept
    tessel::StoreStats store;    ///< summed over the phase's daemons
    tessel::LoopStats loop;      ///< summed over the phase's daemons

    void addDaemon(tessel::ServiceLoop &daemon);
    std::vector<double> queueWaits() const;
};

class Client
{
  public:
    /** Open a daemon on @p dir (daemon defaults otherwise, including
     * the 1 s replan budget). */
    std::unique_ptr<tessel::ServiceLoop> openDaemon(const std::string &dir,
                                                    int workers,
                                                    size_t memory_capacity);

    /** How one feed() call drives the daemon. */
    struct FeedPlan
    {
        /** With an index order: stop submitting after this long. */
        double seconds = 0.0;
        int window = 1;
        /** Mark the answered instances as part of the measured phase. */
        bool measured = false;
        /** Keep one AnswerRow per answer. */
        bool keepRows = false;
    };

    /**
     * Feed @p lines (in order, or by @p order indices until
     * plan.seconds have passed) with at most plan.window in flight, and
     * wait for every callback. Answers are recorded into @p tally and
     * checked against earlier answers for the same fingerprint in the
     * current scope.
     */
    void feed(tessel::ServiceLoop &daemon,
              const std::vector<std::string> &lines,
              const std::vector<uint8_t> *order, const FeedPlan &plan,
              Tally *tally, WireTimers *timers = nullptr);

    /**
     * Verify every distinct served plan not yet verified against
     * @p cache (the daemon's store, still holding the plans): the
     * fingerprint matches the query, the stored plan's digest is the
     * served plan_hash, and verifyResultAgainstQuery accepts it. A stale
     * answer is re-derived with prepareReplanSeed from the stored base
     * plan and checked the same way. A fresh plan that no budget cut
     * must also equal every earlier such plan for its fingerprint, on
     * any store: the search is deterministic within its budgets.
     */
    void verifyNew(tessel::PlanCache &cache);

    /** Start a new store scope: answers from now on are checked against
     * each other, and against earlier scopes only through verifyNew's
     * check that a search not cut by a budget gives the same plan. */
    void beginScope();

    /** N for plan_makespan_sum (>= every plan's minMicrobatches()). */
    static constexpr int kMakespanMicrobatches = 16;

    /** Sum of makespanFor(N) over distinct measured instances, one
     * term per fingerprint: its first fresh plan, or its retimed plan
     * when every measured answer for it was stale. */
    double makespanSum() const;
    /** Digest over sorted distinct (fingerprint, plan_hash) of non-stale
     * measured answers whose plan no budget cut. */
    std::string planDigest() const;
    /** Distinct fingerprints answered in the measured phase, and how
     * many of them were served a budget-cut plan. */
    size_t distinctMeasured() const;
    size_t budgetCutMeasured() const;
    /** @p a is a fresh search that ran into a wall-clock budget. */
    bool budgetCut(const Answer &a) const;

    /** Correctness failures so far (setup included). */
    uint64_t failures() const { return failures_; }
    const std::vector<std::string> &failureNotes() const { return notes_; }

    const std::map<SeenKey, Seen> &seen() const { return seen_; }

  private:
    /** Record one correctness failure (mu_ held). */
    void failLocked(const std::string &why);

    mutable std::mutex mu_;
    uint64_t scope_ = 0;
    std::map<SeenKey, Seen> seen_;
    /** Fingerprint -> plan_hash of the first verified fresh plan not cut
     * by a budget, over all scopes. */
    std::map<std::string, std::string> planOf_;
    uint64_t failures_ = 0;
    std::vector<std::string> notes_;
};

/**
 * The part of a phase the timed figures (queries_per_s, answer_ms_mean,
 * trace_overhead) cover: every answer but the fresh searches cut by a
 * wall-clock budget, whose length the budget sets, not the code. A cut
 * answer's latency is taken off the wall time; that is the wall time it
 * held, as the workloads that search keep one query in flight.
 */
struct Timed
{
    std::vector<double> latencyMs;
    double wallSec = 0.0;
    size_t cut = 0;
    double cutSec = 0.0;
};
Timed timedPart(const Tally &tally, const Client &client);

/** Peak resident set size of this process (MiB). */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_CLIENT_H
