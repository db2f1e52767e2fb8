/**
 * @file
 * Tests for TesselSearch (Algorithm 1): zero-bubble periods and NR
 * thresholds matching the paper's searched schedules (Fig. 8 / Fig. 11),
 * memory ablation behavior (Fig. 12), lazy-search equivalence, and the
 * reference plans under node-budgeted phase completion.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/search.h"
#include "placement/shapes.h"
#include "service/service.h"
#include "store/serialize.h"

namespace tessel {
namespace {

TesselOptions
quickOpts()
{
    TesselOptions o;
    o.totalBudgetSec = 120.0;
    return o;
}

TEST(TesselSearch, VShapeFindsOneFOneB)
{
    const auto r = tesselSearch(makeVShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 3);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_EQ(r.nrUsed, 4); // Fig. 11: V-shape needs >= 4 micro-batches.
    EXPECT_DOUBLE_EQ(r.plan.steadyBubbleRate(), 0.0);
    EXPECT_TRUE(r.breakdown.earlyExit);
}

TEST(TesselSearch, MShapeNeedsSixMicrobatches)
{
    const auto r = tesselSearch(makeMShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_EQ(r.nrUsed, 6); // Fig. 8(b) / Fig. 11.
    EXPECT_DOUBLE_EQ(r.plan.steadyBubbleRate(), 0.0);
}

TEST(TesselSearch, KShapeTrainingNeedsThree)
{
    const auto r = tesselSearch(makeKShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_EQ(r.nrUsed, 3); // Fig. 8(h).
}

TEST(TesselSearch, XShapeZeroBubble)
{
    const auto r = tesselSearch(makeXShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, r.lowerBound);
    EXPECT_DOUBLE_EQ(r.plan.steadyBubbleRate(), 0.0);
}

TEST(TesselSearch, InferenceShapes)
{
    // Inference NR values from Fig. 8(c,f,i): M=4, K=2, V=1.
    const auto rv = tesselSearch(forwardOnly(makeVShape(4)), quickOpts());
    ASSERT_TRUE(rv.found);
    EXPECT_EQ(rv.nrUsed, 1);
    EXPECT_EQ(rv.period, rv.lowerBound);

    const auto rm = tesselSearch(forwardOnly(makeMShape(4)), quickOpts());
    ASSERT_TRUE(rm.found);
    EXPECT_EQ(rm.nrUsed, 4);
    EXPECT_EQ(rm.period, rm.lowerBound);

    const auto rk = tesselSearch(forwardOnly(makeKShape(4)), quickOpts());
    ASSERT_TRUE(rk.found);
    EXPECT_EQ(rk.nrUsed, 2);
    EXPECT_EQ(rk.period, rk.lowerBound);
}

TEST(TesselSearch, LazyAndEagerAgreeOnPeriod)
{
    for (const char *name : {"V", "M", "K"}) {
        TesselOptions lazy = quickOpts();
        TesselOptions eager = quickOpts();
        eager.lazy = false;
        const auto a = tesselSearch(makeShapeByName(name, 4), lazy);
        const auto b = tesselSearch(makeShapeByName(name, 4), eager);
        ASSERT_TRUE(a.found);
        ASSERT_TRUE(b.found);
        EXPECT_EQ(a.period, b.period) << name;
        EXPECT_EQ(a.nrUsed, b.nrUsed) << name;
    }
}

class MemorySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MemorySweep, BubbleNonIncreasingInMemory)
{
    // Fig. 12's trend: more memory never hurts the searched period.
    const Mem m = GetParam();
    TesselOptions opts = quickOpts();
    opts.memLimit = m;
    const auto r = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(r.found) << "M=" << m;

    TesselOptions more = quickOpts();
    more.memLimit = m + 1;
    const auto r2 = tesselSearch(makeVShape(4), more);
    ASSERT_TRUE(r2.found);
    EXPECT_LE(r2.period, r.period);
}

INSTANTIATE_TEST_SUITE_P(Capacities, MemorySweep,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(TesselSearch, VShapeZeroBubbleAtMemoryFour)
{
    // Fig. 12: V-shape reaches zero bubble once M >= D = 4.
    TesselOptions opts = quickOpts();
    opts.memLimit = 4;
    const auto r = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 3);

    opts.memLimit = 2;
    const auto tight = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(tight.found);
    EXPECT_GT(tight.period, 3);
}

TEST(TesselSearch, NrSweepMatchesFig11Start)
{
    // Restricting the repetend to 1 micro-batch leaves the sequential
    // period (high bubble), like the leftmost points of Fig. 11.
    TesselOptions opts = quickOpts();
    opts.maxRepetendMicrobatches = 1;
    const auto r = tesselSearch(makeVShape(4), opts);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 12);
    EXPECT_NEAR(r.plan.steadyBubbleRate(), 0.75, 1e-9);
}

TEST(TesselSearch, ReportsBreakdown)
{
    const auto r = tesselSearch(makeMShape(4), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_GT(r.breakdown.candidatesEnumerated, 0u);
    EXPECT_GT(r.breakdown.candidatesSolved, 0u);
    EXPECT_GE(r.breakdown.repetendSeconds, 0.0);
}

TEST(TesselSearch, TwoDeviceShapes)
{
    for (const char *name : {"V", "X", "K"}) {
        const auto r = tesselSearch(makeShapeByName(name, 2), quickOpts());
        ASSERT_TRUE(r.found) << name;
        EXPECT_EQ(r.period, r.lowerBound) << name;
    }
}

TEST(TesselSearch, ReferencePlansUnderNodeBudgets)
{
    // Plan digests of the 15 reference queries (4 devices, 10 s query
    // budget), recorded before phase solves had node budgets: every
    // deciding incumbent lies below kPhaseNodeBudget, so the budgets
    // move no plan. Only NN/hetero's completion is cut, so only it is
    // flagged unproven. The wall-clock budgets are switched off so that
    // the node budgets alone decide, as they do wherever the backstops
    // never bind; a Debug or sanitizer build is slow enough to hit the
    // 5 s phase backstop.
    //
    // The one-thread sweep's effort is pinned too: solver nodes (period
    // search plus phase solves) and candidates solved, recorded while a
    // separate serial loop still ran at numThreads = 1.
    struct Reference
    {
        std::string digest;
        uint64_t solverNodes;
        uint64_t candidatesSolved;
    };
    const std::map<std::string, Reference> refs = {
        {"V/homogeneous", {"51a433be64ed8cc318ece4f48337c2d1", 223, 42}},
        {"V/mem-capped", {"d5c5b0d2651ff477705167e31a5ef5dc", 223, 42}},
        {"V/hetero", {"0c2b5e5255ac458f654ff42ba0b1b0a4", 5394, 808}},
        {"X/homogeneous", {"c11f7b632c25d022a271f6e66be448c5", 699, 209}},
        {"X/mem-capped", {"005d954bd634a5fcb924667dcdbf7f64", 296, 80}},
        {"X/hetero", {"69ed9bc6c48d773382981d1ca1749dd5", 264820, 3901}},
        {"M/homogeneous",
         {"8add0c22363a13180db3be80354b4295", 98555, 1513}},
        {"M/mem-capped", {"fcc313ff06dade2e49bf38a6484adbcf", 127, 11}},
        {"M/hetero", {"b8c41004c4cf166f8563e7295c7babad", 273445, 535}},
        {"NN/homogeneous",
         {"5e7249cfcd5c640a0980823d78adc303", 1419239, 12952}},
        {"NN/mem-capped", {"21e4a1ca5d8d4f5022a39f80d3c996c1", 1, 1}},
        {"NN/hetero",
         {"0a103c3ed661ad0e64955a90dade4a2e", 4372573, 40151}},
        {"K/homogeneous", {"6d0e8dc2917b16cb9e294a3d346af46e", 183, 27}},
        {"K/mem-capped", {"490661564bf4770464e2a45995186228", 73, 18}},
        {"K/hetero", {"9bac9a052d012ee6ee04940fe8e8c7ca", 4942, 58}},
    };
    const std::vector<PlanQuery> queries = referenceShapeQueries(4, true, 10.0);
    ASSERT_EQ(queries.size(), refs.size());
    for (const PlanQuery &q : queries) {
        TesselOptions opts = q.effectiveOptions();
        opts.numThreads = 1;
        opts.totalBudgetSec = opts.repetendBudgetSec = opts.phaseBudgetSec =
            0.0;
        const TesselResult r = tesselSearch(q.placement, opts);
        ASSERT_TRUE(r.found) << q.label;
        const Reference &ref = refs.at(q.label);
        EXPECT_EQ(resultPlanDigest(r).hex(), ref.digest) << q.label;
        EXPECT_EQ(r.breakdown.solverNodes, ref.solverNodes) << q.label;
        EXPECT_EQ(r.breakdown.candidatesSolved, ref.candidatesSolved)
            << q.label;
        EXPECT_EQ(r.breakdown.budgetExhausted, q.label == "NN/hetero")
            << q.label;
    }
}

TEST(TesselSearch, CustomSpansStillOptimal)
{
    // Unbalanced stage costs: the work bound moves; the search should
    // still reach it with enough micro-batches.
    ShapeCosts costs;
    costs.fwdSpan = 2;
    costs.bwdSpan = 4;
    const auto r = tesselSearch(makeVShape(4, costs), quickOpts());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.period, 6);
}

} // namespace
} // namespace tessel
