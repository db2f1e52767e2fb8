/**
 * @file
 * Exactness tests for the minimal-period / maximum-cycle-ratio kernel
 * (McrCore, Howard policy iteration): periods must agree with a
 * brute-force simple-cycle oracle and start vectors with a from-zeros
 * Bellman-Ford least fixed point on random tiny systems, warm kernel
 * calls must reproduce cold results bit for bit while spending strictly
 * fewer value sweeps, and PeriodSearch must reproduce recorded
 * schedules with exact nodeLimit accounting.
 */

#include <gtest/gtest.h>

#include "core/repetend.h"
#include "core/repetend_solver.h"
#include "placement/shapes.h"
#include "support/hashing.h"

namespace tessel {
namespace {

/** Deterministic LCG so the random systems are reproducible. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }
    int
    range(int lo, int hi) // inclusive
    {
        return lo + static_cast<int>(next() % (hi - lo + 1));
    }
};

/** ceil(w / h) for h > 0 without truncation-toward-zero surprises. */
Time
ceilDivFloorSafe(Time w, Time h)
{
    const Time q = w / h;
    return q * h < w ? q + 1 : q;
}

struct OracleVerdict
{
    /** true when some cycle has sum_h == 0 and sum_w > 0 (no period
     *  can satisfy it). */
    bool hopeless = false;
    /** max over cycles with sum_h > 0 of ceil(sum_w / sum_h); the
     *  smallest feasible period ignoring bounds. */
    Time minFeasible = 0;
    bool anyCycle = false;
};

/**
 * Enumerate every simple cycle by edge-DFS. Roots ascend and paths
 * only visit nodes >= the root, so each cycle is found exactly once
 * (from its smallest node; multi-edges contribute distinct cycles).
 */
void
cycleDfs(const std::vector<PeriodEdge> &edges, int root, int at,
         uint32_t visited, Time w, Time h, OracleVerdict &v)
{
    for (const PeriodEdge &e : edges) {
        if (e.from != at || e.to < root)
            continue;
        if (e.to == root) {
            const Time cw = w + e.w;
            const Time ch = h + e.h;
            v.anyCycle = true;
            if (ch == 0) {
                if (cw > 0)
                    v.hopeless = true;
            } else if (cw > 0) {
                v.minFeasible =
                    std::max(v.minFeasible, ceilDivFloorSafe(cw, ch));
            }
        } else if (!(visited & (1u << e.to))) {
            cycleDfs(edges, root, e.to, visited | (1u << e.to),
                     w + e.w, h + e.h, v);
        }
    }
}

Time
oracleMinPeriod(int n, const std::vector<PeriodEdge> &edges, Time lo,
                Time hi)
{
    OracleVerdict v;
    for (int root = 0; root < n; ++root)
        cycleDfs(edges, root, root, 1u << root, 0, 0, v);
    if (v.hopeless)
        return -1;
    const Time period = std::max(lo, v.minFeasible);
    return period > hi ? -1 : period;
}

/**
 * Least fixed point at a feasible @p period: Bellman-Ford from all
 * zeros, relaxing until nothing changes (max-weight paths are simple
 * without a positive cycle, so n passes suffice).
 */
std::vector<Time>
oracleLeastFixedPoint(int n, const std::vector<PeriodEdge> &edges,
                      Time period)
{
    std::vector<Time> s(n, 0);
    for (int pass = 0; pass <= n; ++pass) {
        bool changed = false;
        for (const PeriodEdge &e : edges) {
            const Time need = s[e.from] + e.w - e.h * period;
            if (need > s[e.to]) {
                s[e.to] = need;
                changed = true;
            }
        }
        if (!changed)
            return s;
    }
    ADD_FAILURE() << "no fixed point at a feasible period " << period;
    return s;
}

std::vector<PeriodEdge>
randomSystem(Rng &rng, int n)
{
    const int ne = rng.range(n, 3 * n);
    std::vector<PeriodEdge> edges;
    edges.reserve(ne);
    for (int i = 0; i < ne; ++i) {
        const int from = rng.range(0, n - 1);
        int to = rng.range(0, n - 1);
        if (to == from)
            to = (to + 1) % n;
        edges.push_back({from, to, static_cast<Time>(rng.range(-3, 20)),
                         rng.range(0, 3)});
    }
    return edges;
}

/** Every constraint satisfied and the vector grounded at zero. */
void
expectValidStart(const std::vector<PeriodEdge> &edges,
                 const std::vector<Time> &s, Time period)
{
    for (const PeriodEdge &e : edges)
        EXPECT_GE(s[e.to], s[e.from] + e.w - e.h * period);
    for (const Time t : s)
        EXPECT_GE(t, 0);
}

TEST(McrKernel, MatchesBruteForceOracles)
{
    Rng rng(20240808);
    int feasible = 0, infeasible = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const int n = rng.range(2, 6);
        const std::vector<PeriodEdge> edges = randomSystem(rng, n);
        const Time lo = rng.range(0, 3);
        const Time hi = rng.range(8, 40);
        const Time want = oracleMinPeriod(n, edges, lo, hi);
        const McrSolveResult r = solveMinPeriod(n, edges, lo, hi);
        ASSERT_EQ(r.period, want) << "trial " << trial;
        if (want < 0) {
            ++infeasible;
            continue;
        }
        ++feasible;
        // Minimality of the period is the cycle oracle's claim;
        // minimality of the starts is the least-fixed-point claim.
        EXPECT_EQ(r.start, oracleLeastFixedPoint(n, edges, want))
            << "trial " << trial;
        expectValidStart(edges, r.start, want);
        EXPECT_GT(r.stats.valueSweeps, 0u);
    }
    // The mix must exercise both verdicts or the trial space is dead.
    EXPECT_GT(feasible, 50);
    EXPECT_GT(infeasible, 50);
}

TEST(McrKernel, WarmKernelMatchesColdOnGrownSystems)
{
    // Edge-growth chains mimic the BnB decision tail: solve, append a
    // decision edge, re-solve with the previous solution as the warm
    // base. Warm results must be bit-identical with strictly fewer
    // value sweeps in aggregate.
    Rng rng(7);
    uint64_t warmSweeps = 0, coldSweeps = 0;
    int compared = 0;
    for (int chain = 0; chain < 60; ++chain) {
        const int n = rng.range(3, 6);
        std::vector<PeriodEdge> edges = randomSystem(rng, n);
        const Time hi = 200;
        McrSolveResult prev = solveMinPeriod(n, edges, 1, hi);
        for (int grow = 0; grow < 4 && prev.period >= 0; ++grow) {
            const int from = rng.range(0, n - 1);
            int to = rng.range(0, n - 1);
            if (to == from)
                to = (to + 1) % n;
            edges.push_back({from, to,
                             static_cast<Time>(rng.range(0, 12)),
                             rng.range(0, 2)});
            const McrWarmStart warm{&prev.start, prev.period,
                                    &prev.policy};
            const McrSolveResult w =
                solveMinPeriod(n, edges, prev.period, hi, warm);
            const McrSolveResult c =
                solveMinPeriod(n, edges, prev.period, hi);
            ASSERT_EQ(w.period, c.period);
            EXPECT_EQ(w.start, c.start);
            warmSweeps += w.stats.valueSweeps;
            coldSweeps += c.stats.valueSweeps;
            ++compared;
            prev = w;
        }
    }
    EXPECT_GT(compared, 100);
    EXPECT_LT(warmSweeps, coldSweeps);
}

/**
 * Digest of every candidate's PeriodSearch result on @p p up to
 * @p max_nr: (feasible, period, start, windowSpan, nodes, boundPrunes)
 * in enumeration order. The expected values were recorded while a
 * binary-search period core still ran beside Howard and both produced
 * these exact results and trees.
 */
std::string
periodSearchDigest(const Placement &p, int max_nr,
                   Mem mem_limit = kUnlimitedMem)
{
    Hasher h;
    int feasible = 0;
    for (const auto &a : allRepetends(p, max_nr)) {
        RepetendSolveOptions opts;
        opts.memLimit = mem_limit;
        const RepetendSchedule r = solveRepetend(p, a, opts);
        h.addBool(r.feasible);
        h.addI64(r.period);
        h.addU64(r.start.size());
        for (const Time t : r.start)
            h.addI64(t);
        h.addI64(r.windowSpan);
        h.addU64(r.stats.nodes);
        h.addU64(r.stats.boundPrunes);
        feasible += r.feasible ? 1 : 0;
    }
    EXPECT_GT(feasible, 0);
    return h.digest().hex();
}

TEST(McrPeriodSearch, RecordedResultsVShape)
{
    EXPECT_EQ(periodSearchDigest(makeVShape(4), 3),
              "ebf29b9d2ec10cac9e5452ca10168ed4");
}

TEST(McrPeriodSearch, RecordedResultsMShape)
{
    EXPECT_EQ(periodSearchDigest(makeMShape(4), 2),
              "66b5012f0d5453f96fdae769379942a3");
}

TEST(McrPeriodSearch, RecordedResultsNnShape)
{
    EXPECT_EQ(periodSearchDigest(makeNnShape(4), 2),
              "dca60fc187d41e4faea6e8920fd8ce74");
}

TEST(McrPeriodSearch, RecordedResultsUnderMemoryCap)
{
    // A cap of 2 forces memory reorder branches on the V-shape (a cap
    // of 4 binds nowhere and reproduces the uncapped digest).
    EXPECT_EQ(periodSearchDigest(makeVShape(4), 3, 2),
              "9c7756104a1dbde4fb0e3550c21cea17");
}

TEST(McrPeriodSearch, BudgetMarksUnproven)
{
    const Placement p = makeNnShape(4);
    const auto all = allRepetends(p, 4);
    ASSERT_FALSE(all.empty());
    RepetendSolveOptions opts;
    opts.nodeLimit = 1;
    const auto sched = solveRepetend(p, all[all.size() / 2], opts);
    EXPECT_FALSE(sched.proven);
}

TEST(McrPeriodSearch, NodeLimitExact)
{
    // nodeLimit is counted per search node — the sweep-loop stop
    // polling must not perturb it.
    const Placement p = makeNnShape(4);
    const auto all = allRepetends(p, 4);
    ASSERT_FALSE(all.empty());
    RepetendSolveOptions opts;
    opts.nodeLimit = 5;
    const auto sched = solveRepetend(p, all[all.size() / 2], opts);
    EXPECT_FALSE(sched.proven);
    EXPECT_EQ(sched.stats.nodes, 5u);
    EXPECT_GT(sched.stats.valueSweeps, 0u);
}

} // namespace
} // namespace tessel
