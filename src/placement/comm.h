/**
 * @file
 * Communication lowering for heterogeneous clusters: rewrite a placement
 * so that every cross-device dependency edge with a nonzero transfer cost
 * becomes an explicit BlockKind::Comm block occupying a *link
 * pseudo-device* (a device bit >= the real device count, one per
 * unordered device pair actually used). Because comm blocks are ordinary
 * blocks on ordinary (pseudo-)devices, the repetend solver, the
 * branch-and-bound phase solver, memory pruning, and plan instantiation
 * all handle communication unchanged: link exclusivity is device
 * exclusivity, and comm-before-consume is a dependency edge.
 *
 * Block spans are simultaneously scaled by the slowest participating
 * device (ClusterModel::scaledSpan), so heterogeneity and communication
 * enter the search through one transformation.
 */

#ifndef TESSEL_PLACEMENT_COMM_H
#define TESSEL_PLACEMENT_COMM_H

#include <map>
#include <utility>
#include <vector>

#include "core/repetend.h"
#include "ir/cluster.h"
#include "ir/placement.h"
#include "ir/schedule.h"

namespace tessel {

/** Result of lowering a placement onto a non-trivial cluster model. */
struct CommExpansion
{
    /** Expanded placement: original specs (indices preserved, spans
     * scaled) followed by comm specs on link pseudo-devices. */
    Placement placement;
    /** Devices [0, numRealDevices) are physical; the rest are links. */
    int numRealDevices = 0;
    /** Number of link pseudo-devices appended after the real devices. */
    int numLinks = 0;
    /** Per expanded spec: originating spec, or -1 for comm blocks. */
    std::vector<int> origSpec;
    /** Per expanded spec: the spec whose repetend index it adopts (its
     * own for real blocks, the consumer's for comm blocks). */
    std::vector<int> indexSpec;
    /** Per link pseudo-device (offset by numRealDevices): its device
     * pair, normalized to (min, max). */
    std::vector<std::pair<DeviceId, DeviceId>> linkEndpoints;

    /** @return number of comm specs appended to the placement. */
    int
    numCommBlocks() const
    {
        return placement.numBlocks() - numOriginalBlocks();
    }

    /** @return number of original (non-comm) specs. */
    int
    numOriginalBlocks() const
    {
        int n = 0;
        for (int o : origSpec)
            if (o >= 0)
                ++n;
        return n;
    }

    /**
     * Extend a repetend assignment over the original placement to the
     * expanded one: real blocks keep their index, comm blocks adopt
     * their consumer's index (the transfer lands in the same window
     * position as its use). Preserves Property 4.2 along every expanded
     * edge.
     */
    RepetendAssignment extendAssignment(const RepetendAssignment &orig) const;

    /**
     * Project a schedule over the expanded placement back onto the
     * original one (drop comm blocks, keep start times). The result is
     * valid for the original problem whenever the expanded schedule was
     * valid: dropping blocks relaxes exclusivity, and the original
     * dependency edges are retained by the expansion.
     */
    Schedule projectSchedule(const Schedule &expanded) const;
};

/**
 * Knobs controlling the comm lowering. There are none today: every
 * transfer is lowered per uncovered destination device, matching the
 * runtime's per-device send/recv pairs exactly. The struct stays in the
 * lowering signatures (and TesselOptions::comm) so callers compile
 * unchanged; it contributes nothing to fingerprints.
 */
struct CommOptions
{
};

/**
 * Lower @p placement onto @p cluster.
 *
 * For every dependency edge i -> j and every device of j that does not
 * already hold i's output, a comm block is inserted on the link
 * pseudo-device of the pair (source, destination), where the source is
 * the lowest device of i (matching runtime instantiation). The comm
 * block depends on i, and j additionally depends on the comm block; the
 * direct edge i -> j is kept, so projecting back to the original
 * placement stays well-formed. Edges whose transfer cost is zero are
 * left untouched, which makes expansion with a trivial model the
 * identity on the dependency structure.
 *
 * @param placement the original (real-device) placement.
 * @param cluster speed factors and link parameters.
 * @param edge_mb activation volume (MB) per dependency edge (producer
 *        spec, consumer spec); missing edges transfer 0 MB and cost only
 *        the link latency.
 * @param options lowering knobs.
 */
CommExpansion expandWithComm(
    const Placement &placement, const ClusterModel &cluster,
    const std::map<std::pair<int, int>, double> &edge_mb,
    const CommOptions &options = {});

/**
 * Incremental re-lowering for elastic replanning: produce the expansion
 * of @p placement under the *drifted* @p cluster, reusing the structure
 * of @p previous (the expansion the served plan was solved on) instead
 * of rebuilding it — names, dependency wiring, link allocation, and
 * index maps are copied; only spans are recomputed (real blocks via
 * scaledSpan, comm blocks via the transfer dry run under the new
 * costs).
 *
 * Falls back to a full expandWithComm() whenever the patch cannot be
 * proven equivalent: the delta removes devices (the placement itself
 * changes), @p previous is not a well-formed expansion of this exact
 * placement, or the drift changed the *set* of comm blocks (a link
 * flipping between free and charged creates or destroys transfers,
 * which patching cannot express). Either way the returned expansion is
 * bit-identical to what expandWithComm(placement, cluster, ...) would
 * build — the fallback trivially, the patch because every field is
 * either copied from a validated previous expansion or recomputed with
 * the same formulas.
 *
 * @param patched optionally receives whether the cheap patch path was
 *        taken (false = full re-expansion).
 */
CommExpansion relowerWithComm(
    const Placement &placement, const ClusterModel &cluster,
    const std::map<std::pair<int, int>, double> &edge_mb,
    const CommOptions &options, const CommExpansion &previous,
    const ClusterDelta &delta, bool *patched = nullptr);

/**
 * Dry-run resource count: the total resources (real devices plus link
 * pseudo-devices) expandWithComm would allocate. Any count is
 * representable — ResourceSet grows past 64 bits transparently — so
 * this is sizing information (solver state scales with it), not a
 * feasibility check.
 */
int commResourceDemand(const Placement &placement,
                       const ClusterModel &cluster,
                       const std::map<std::pair<int, int>, double> &edge_mb,
                       const CommOptions &options = {});

/**
 * Per-edge volume map assigning @p mb MB to every dependency edge whose
 * producer and consumer device sets differ (convenience for tests and
 * the comm benches).
 */
std::map<std::pair<int, int>, double>
crossDeviceEdgeMB(const Placement &placement, double mb);

} // namespace tessel

#endif // TESSEL_PLACEMENT_COMM_H
