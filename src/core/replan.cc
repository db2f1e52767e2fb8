/**
 * @file
 * Elastic replanning core: adapt a served plan to a drifted cluster and
 * seed the fresh search with it (core/search.h ReplanSeed /
 * tesselReplan).
 *
 * Adaptation itself is store/adapt.h's pipeline — the served plan is
 * treated as its own best neighbor: structural correspondence is
 * trivially satisfied (same placement), so the work reduces to
 * re-lowering under the new costs (incrementally, via relowerWithComm,
 * when the delta permits), re-deriving or re-solving the repetend
 * timing, and oracle verification. The verified retimed plan doubles
 * as the conservative `stale` answer the service can hand out when a
 * replan misses its latency budget.
 *
 * This file lives in core/ because replanning is a search-level
 * operation (ISSUE 9 places the API in core/search), but it reuses the
 * adaptation machinery one layer up; the dependency is source-level
 * only (everything links into one library).
 */

#include <utility>

#include "core/search.h"
#include "store/adapt.h"
#include "support/tracing.h"

namespace tessel {

ReplanSeed
prepareReplanSeed(const Placement &placement, const TesselOptions &drifted,
                  const TesselResult &served, const ClusterDelta *delta,
                  bool exactPhasesAllowed)
{
    ReplanSeed out;
    if (delta && delta->removesDevices()) {
        out.reason =
            "delta removes devices; replan onto a survivor placement";
        return out;
    }

    const bool comm_aware =
        drifted.cluster &&
        !drifted.cluster->isTrivial(placement.numDevices());

    TesselOptions eff = drifted;
    if (comm_aware) {
        TraceSpan span("relower");
        if (delta && served.commAware && served.expansion) {
            bool patched = false;
            out.lowered = relowerWithComm(
                placement, *drifted.cluster, drifted.edgeMB, drifted.comm,
                *served.expansion, *delta, &patched);
            out.incrementalLower = patched;
        } else {
            out.lowered = expandWithComm(placement, *drifted.cluster,
                                         drifted.edgeMB, drifted.comm);
        }
        span.setArg("incremental", out.incrementalLower ? 1 : 0);
        eff.lowered = &*out.lowered;
    }

    // Pure speed drift can flip a trivial cluster non-trivial without
    // creating a single comm block (every link still free). The served
    // plan is then structurally a plan of the drifted solve placement —
    // zero comm specs, identity assignment extension — so re-brand it
    // comm-aware instead of failing adaptation's awareness check; the
    // oracle still decides whether its timing survived the new spans.
    const TesselResult *adapt_from = &served;
    TesselResult shim;
    if (comm_aware && !served.commAware && out.lowered->numLinks == 0) {
        shim = served;
        shim.commAware = true;
        adapt_from = &shim;
    }

    TraceSpan span("retime");
    AdaptOutcome adapted =
        adaptResultToQuery(placement, eff, *adapt_from, exactPhasesAllowed);
    span.setArg("ok", adapted.ok ? 1 : 0);
    span.setArg("proven", adapted.retimeCut ? 0 : 1);
    out.work.merge(adapted.breakdown);
    if (!adapted.ok) {
        out.reason = std::move(adapted.reason);
        return out;
    }
    out.ok = true;
    out.retimed = adapted.retimed;
    out.retimeCut = adapted.retimeCut;
    out.seed = std::move(adapted.seed);
    out.retimedResult = std::move(adapted.adapted);
    return out;
}

TesselResult
tesselReplan(const Placement &placement, const TesselOptions &drifted,
             const TesselResult &served, const ClusterDelta *delta,
             bool exactPhasesAllowed, ReplanSeed *info)
{
    ReplanSeed seed = prepareReplanSeed(placement, drifted, served, delta,
                                        exactPhasesAllowed);
    TesselOptions opts = drifted;
    if (seed.ok)
        opts.seed = &seed.seed;
    if (seed.lowered)
        opts.lowered = &*seed.lowered;
    TesselResult result = tesselSearch(placement, opts);
    result.breakdown.merge(seed.work);
    if (info)
        *info = std::move(seed);
    return result;
}

} // namespace tessel
