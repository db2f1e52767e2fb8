/**
 * @file
 * Counter-regression tests for the incremental solver hot paths: the
 * warm-started PeriodSearch must produce bit-identical periods and
 * start vectors while spending strictly fewer policy-evaluation sweeps
 * than the cold path, and a BnB solver reused across calls must answer
 * exactly like fresh solvers. The instances are fixed (GPT M-shape,
 * mT5 NN-shape, V-shape) and every solver involved is deterministic,
 * so the assertions lock exact effort reductions, not just
 * statistical tendencies.
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

/**
 * binarySearchMakespan on one reused solver must land on a fresh
 * solver's minimizeMakespan optimum.
 */
void
expectBinaryMatchesMinimize(const SolverProblem &sp)
{
    BnbSolver reused(sp);
    BnbSolver direct(sp);
    const SolveResult bin = reused.binarySearchMakespan();
    const SolveResult min = direct.minimizeMakespan();
    ASSERT_EQ(bin.feasible(), min.feasible());
    if (!bin.feasible())
        return;
    EXPECT_EQ(bin.makespan, min.makespan);
    // The ready list is maintained incrementally: its insertion count
    // is bounded by dependency-edge work per node, not nodes x blocks.
    EXPECT_GT(bin.stats.readyPushes, 0u);
    EXPECT_LT(bin.stats.readyPushes,
              bin.stats.nodes * sp.blocks.size() + sp.blocks.size());
}

TEST(IncrementalSolver, ReusedSolverDecideSequencesMatchFreshSolvers)
{
    // Manual decide() sequences with non-monotone deadlines on one
    // solver: every answer has to match a fresh solver's.
    Problem prob(makeVShape(4), 3);
    const SolverProblem sp = buildFullInstance(prob);
    BnbSolver reused(sp);
    BnbSolver probe(sp);
    const Time opt = probe.minimizeMakespan().makespan;
    for (const Time d :
         {opt - 1, opt, opt + 5, opt - 2, opt + 1, opt - 1, opt}) {
        BnbSolver fresh(sp);
        EXPECT_EQ(reused.decide(d).feasible(), fresh.decide(d).feasible())
            << "deadline " << d;
    }
    // The memory cap derails the est/tail greedy first dive, so the
    // binary search runs real SAT rounds with shrinking deadlines.
    for (int n = 2; n <= 3; ++n) {
        expectBinaryMatchesMinimize(
            buildFullInstance(Problem(makeMShape(4), n, 4)));
        expectBinaryMatchesMinimize(
            buildFullInstance(Problem(makeNnShape(4), n, 4)));
    }
}

} // namespace
} // namespace tessel
