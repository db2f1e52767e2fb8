/**
 * @file
 * Counter-regression tests for the incremental solver hot paths: the
 * warm-started PeriodSearch must produce bit-identical periods and
 * start vectors while spending strictly fewer policy-evaluation sweeps
 * than the cold path, and the persistent dominance memo must
 * leave binarySearchMakespan's answer unchanged while expanding
 * strictly fewer nodes than cold per-round re-solves. The instances
 * are fixed (GPT M-shape, mT5 NN-shape) and every solver involved is
 * deterministic, so the assertions lock exact effort reductions, not
 * just statistical tendencies.
 */

#include <gtest/gtest.h>

#include "core/repetend.h"
#include "core/repetend_solver.h"
#include "placement/shapes.h"
#include "solver/bnb.h"
#include "solver/from_ir.h"

namespace tessel {
namespace {

struct WarmColdTotals
{
    /** Policy-evaluation sweeps (SolveStats::valueSweeps). */
    uint64_t warmSweeps = 0;
    uint64_t coldSweeps = 0;
    uint64_t warmNodes = 0;
    uint64_t coldNodes = 0;
    int feasible = 0;
};

/**
 * Solve every repetend candidate of @p p up to @p max_nr twice — warm
 * and cold — asserting identical feasibility, periods, and start
 * vectors, and accumulate the effort counters.
 */
WarmColdTotals
compareWarmCold(const Placement &p, int max_nr,
                Mem mem_limit = kUnlimitedMem)
{
    WarmColdTotals t;
    for (const auto &a : allRepetends(p, max_nr)) {
        RepetendSolveOptions warm_opts;
        warm_opts.memLimit = mem_limit;
        RepetendSolveOptions cold_opts = warm_opts;
        cold_opts.warmStart = false;
        const RepetendSchedule warm = solveRepetend(p, a, warm_opts);
        const RepetendSchedule cold = solveRepetend(p, a, cold_opts);
        EXPECT_EQ(warm.feasible, cold.feasible);
        if (warm.feasible && cold.feasible) {
            ++t.feasible;
            EXPECT_EQ(warm.period, cold.period);
            EXPECT_EQ(warm.start, cold.start); // Bit-identical plans.
            EXPECT_EQ(warm.windowSpan, cold.windowSpan);
        }
        t.warmSweeps += warm.stats.valueSweeps;
        t.coldSweeps += cold.stats.valueSweeps;
        t.warmNodes += warm.stats.nodes;
        t.coldNodes += cold.stats.nodes;
    }
    return t;
}

/** Warm/cold invariants of the period search. */
void
expectWarmIdenticalAndCheaper(const Placement &p, int max_nr,
                              Mem mem_limit = kUnlimitedMem)
{
    const WarmColdTotals t = compareWarmCold(p, max_nr, mem_limit);
    EXPECT_GT(t.feasible, 0);
    // Warm start never changes the search tree, only probe cost.
    EXPECT_EQ(t.warmNodes, t.coldNodes);
    EXPECT_LT(t.warmSweeps, t.coldSweeps);
}

TEST(IncrementalSolver, WarmStartMShapeIdenticalAndCheaper)
{
    expectWarmIdenticalAndCheaper(makeMShape(4), 2);
}

TEST(IncrementalSolver, WarmStartNnShapeIdenticalAndCheaper)
{
    expectWarmIdenticalAndCheaper(makeNnShape(4), 2);
}

TEST(IncrementalSolver, WarmStartIdenticalUnderMemoryPressure)
{
    // Memory branching exercises the deep decision stacks where the
    // inherited warm bases matter most; the V-shape 1F1B candidate set
    // under a cap of 2 forces reorder branches (a cap of 4 binds
    // nowhere).
    expectWarmIdenticalAndCheaper(makeVShape(4), 3, 2);
}

/** Run warm/cold binarySearchMakespan on @p sp and compare. */
void
expectPersistentMemoCheaper(const SolverProblem &sp, uint64_t &warm_nodes,
                            uint64_t &cold_nodes, uint64_t &reused)
{
    BnbSolver warm_solver(sp);
    SolverOptions cold_opts;
    cold_opts.persistentMemo = false;
    BnbSolver cold_solver(sp, cold_opts);
    const SolveResult warm = warm_solver.binarySearchMakespan();
    const SolveResult cold = cold_solver.binarySearchMakespan();
    ASSERT_EQ(warm.feasible(), cold.feasible());
    if (!warm.feasible())
        return;
    EXPECT_EQ(warm.makespan, cold.makespan);
    // Cross-check against direct minimization on a fresh solver.
    BnbSolver direct(sp);
    EXPECT_EQ(direct.minimizeMakespan().makespan, warm.makespan);
    // The ready list is maintained incrementally: its insertion count
    // is bounded by dependency-edge work per node, not nodes x blocks.
    EXPECT_GT(warm.stats.readyPushes, 0u);
    EXPECT_LT(warm.stats.readyPushes,
              warm.stats.nodes * sp.blocks.size() + sp.blocks.size());
    warm_nodes += warm.stats.nodes;
    cold_nodes += cold.stats.nodes;
    reused += warm.stats.memoReused;
}

TEST(IncrementalSolver, PersistentMemoMShapeFewerNodes)
{
    // The memory cap matters: it derails the est/tail greedy first
    // dive, so the binary search runs real SAT rounds with shrinking
    // deadlines (the regime cross-round proofs accelerate). Unlimited
    // memory makes the first dive optimal and every later round UNSAT
    // at a *rising* deadline, which proofs can never cover.
    uint64_t warm_nodes = 0, cold_nodes = 0, reused = 0;
    for (int n = 2; n <= 3; ++n) {
        Problem prob(makeMShape(4), n, 4);
        expectPersistentMemoCheaper(buildFullInstance(prob), warm_nodes,
                                    cold_nodes, reused);
    }
    EXPECT_LT(warm_nodes, cold_nodes);
    EXPECT_GT(reused, 0u);
}

TEST(IncrementalSolver, PersistentMemoNnShapeFewerNodes)
{
    uint64_t warm_nodes = 0, cold_nodes = 0, reused = 0;
    for (int n = 2; n <= 3; ++n) {
        Problem prob(makeNnShape(4), n, 4);
        expectPersistentMemoCheaper(buildFullInstance(prob), warm_nodes,
                                    cold_nodes, reused);
    }
    EXPECT_LT(warm_nodes, cold_nodes);
    EXPECT_GT(reused, 0u);
}

TEST(IncrementalSolver, PersistentMemoDecideSequencesStaySound)
{
    // Manual decide() sequences with non-monotone deadlines: proof
    // levels must only prune rounds they cover, so every answer has to
    // match a fresh cold solver's.
    Problem prob(makeVShape(4), 3);
    const SolverProblem sp = buildFullInstance(prob);
    BnbSolver persistent(sp);
    BnbSolver probe(sp);
    const Time opt = probe.minimizeMakespan().makespan;
    for (const Time d :
         {opt - 1, opt, opt + 5, opt - 2, opt + 1, opt - 1, opt}) {
        SolverOptions cold_opts;
        cold_opts.persistentMemo = false;
        BnbSolver fresh(sp, cold_opts);
        EXPECT_EQ(persistent.decide(d).feasible(), fresh.decide(d).feasible())
            << "deadline " << d;
    }
}

} // namespace
} // namespace tessel
