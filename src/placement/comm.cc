#include "placement/comm.h"

#include <set>
#include <string>

#include "support/logging.h"

namespace tessel {

RepetendAssignment
CommExpansion::extendAssignment(const RepetendAssignment &orig) const
{
    panic_if(static_cast<int>(orig.r.size()) != numOriginalBlocks(),
             "extendAssignment: assignment size mismatch");
    RepetendAssignment out;
    out.numMicrobatches = orig.numMicrobatches;
    out.r.resize(indexSpec.size());
    for (size_t i = 0; i < indexSpec.size(); ++i)
        out.r[i] = orig.r[indexSpec[i]];
    return out;
}

Schedule
CommExpansion::projectSchedule(const Schedule &expanded) const
{
    const Problem &exp_prob = expanded.problem();
    panic_if(exp_prob.placement().numBlocks() != placement.numBlocks(),
             "projectSchedule: schedule is not over the expanded placement");

    // Rebuild the original placement from the expansion's leading specs:
    // undo the span scaling is impossible here, so the projection keeps
    // the *scaled* spans — it answers "where does real work run", not
    // "what would the homogeneous plan be".
    std::vector<BlockSpec> specs;
    for (int i = 0; i < placement.numBlocks(); ++i) {
        if (origSpec[i] < 0)
            continue;
        BlockSpec b = placement.block(i);
        std::vector<int> deps;
        for (int dep : b.deps)
            if (origSpec[dep] >= 0)
                deps.push_back(origSpec[dep]);
        b.deps = std::move(deps);
        specs.push_back(std::move(b));
    }
    Placement orig(placement.name() + "-projected", numRealDevices,
                   std::move(specs));

    Problem prob(std::move(orig), exp_prob.numMicrobatches(),
                 exp_prob.memLimit());
    std::vector<Mem> init(exp_prob.initialMem().begin(),
                          exp_prob.initialMem().begin() + numRealDevices);
    prob.setInitialMem(std::move(init));

    Schedule out(prob);
    for (int i = 0; i < placement.numBlocks(); ++i) {
        if (origSpec[i] < 0)
            continue;
        for (int mb = 0; mb < exp_prob.numMicrobatches(); ++mb)
            out.setStart({origSpec[i], mb}, expanded.start({i, mb}));
    }
    return out;
}

namespace {

/**
 * Enumerate the transfers the lowering emits for @p placement:
 * fn(producer spec, consumer spec, src device, dst device, span) for
 * every cross-device dependency edge with a nonzero transfer cost.
 * Shared by expandWithComm and commResourceDemand so the dry run and
 * the expansion can never disagree.
 */
template <typename Fn>
void
forEachTransfer(const Placement &placement, const ClusterModel &cluster,
                const std::map<std::pair<int, int>, double> &edge_mb,
                Fn &&fn)
{
    for (int j = 0; j < placement.numBlocks(); ++j) {
        const BlockSpec &consumer = placement.block(j);
        for (int i : consumer.deps) {
            const BlockSpec &producer = placement.block(i);
            const DeviceId src = lowestDevice(producer.devices);
            double mb = 0.0;
            if (auto it = edge_mb.find({i, j}); it != edge_mb.end())
                mb = it->second;
            for (DeviceId dst : consumer.devices) {
                if (producer.devices.test(dst))
                    continue; // Output already resident.
                const Time span = cluster.transferSpan(src, dst, mb);
                if (span > 0)
                    fn(i, j, src, dst, span);
            }
        }
    }
}

} // namespace

CommExpansion
expandWithComm(const Placement &placement, const ClusterModel &cluster,
               const std::map<std::pair<int, int>, double> &edge_mb,
               const CommOptions &)
{
    const int k = placement.numBlocks();
    const int nd = placement.numDevices();

    CommExpansion exp;
    exp.numRealDevices = nd;

    // Original specs first, indices preserved, spans scaled by the
    // slowest participating device.
    std::vector<BlockSpec> specs;
    specs.reserve(k);
    for (int i = 0; i < k; ++i) {
        BlockSpec b = placement.block(i);
        b.span = cluster.scaledSpan(b.span, b.devices);
        specs.push_back(std::move(b));
        exp.origSpec.push_back(i);
        exp.indexSpec.push_back(i);
    }

    // Link pseudo-devices are allocated lazily for pairs that carry a
    // transfer with a nonzero cost. Device masks are width-generic
    // (support/resourceset.h), so any number of links past the real
    // device count is representable.
    std::map<std::pair<DeviceId, DeviceId>, DeviceId> link_of;
    auto link_device = [&](DeviceId a, DeviceId b) {
        const auto key =
            a < b ? std::make_pair(a, b) : std::make_pair(b, a);
        const auto next =
            static_cast<DeviceId>(nd + exp.linkEndpoints.size());
        auto [it, inserted] = link_of.try_emplace(key, next);
        if (inserted)
            exp.linkEndpoints.push_back(key);
        return it->second;
    };

    forEachTransfer(
        placement, cluster, edge_mb,
        [&](int i, int j, DeviceId src, DeviceId dst, Time span) {
            BlockSpec c;
            c.name = "c:" + placement.block(i).name + ">" +
                     placement.block(j).name + "@" + std::to_string(dst);
            c.kind = BlockKind::Comm;
            c.devices = oneDevice(link_device(src, dst));
            c.span = span;
            c.memory = 0;
            c.deps = {i};
            const int comm_spec = static_cast<int>(specs.size());
            specs.push_back(std::move(c));
            exp.origSpec.push_back(-1);
            exp.indexSpec.push_back(j);
            specs[j].deps.push_back(comm_spec);
        });

    exp.numLinks = static_cast<int>(exp.linkEndpoints.size());
    exp.placement = Placement(placement.name() + "+comm", nd + exp.numLinks,
                              std::move(specs));
    return exp;
}

CommExpansion
relowerWithComm(const Placement &placement, const ClusterModel &cluster,
                const std::map<std::pair<int, int>, double> &edge_mb,
                const CommOptions &options, const CommExpansion &previous,
                const ClusterDelta &delta, bool *patched)
{
    if (patched)
        *patched = false;
    auto full = [&] {
        return expandWithComm(placement, cluster, edge_mb, options);
    };
    if (delta.removesDevices())
        return full();

    const int k = placement.numBlocks();
    const int nd = placement.numDevices();

    // `previous` must be a well-formed expansion of this very placement:
    // real specs first (identity origSpec prefix), comm specs after
    // (origSpec -1), device/link counts consistent. Anything else is a
    // contract breach we answer with a fresh expansion, not a crash.
    const int prev_blocks = previous.placement.numBlocks();
    if (previous.numRealDevices != nd || prev_blocks < k ||
        previous.placement.numDevices() != nd + previous.numLinks ||
        static_cast<int>(previous.origSpec.size()) != prev_blocks ||
        static_cast<int>(previous.indexSpec.size()) != prev_blocks ||
        static_cast<int>(previous.linkEndpoints.size()) != previous.numLinks)
        return full();
    for (int i = 0; i < k; ++i)
        if (previous.origSpec[i] != i)
            return full();
    for (int e = k; e < prev_blocks; ++e)
        if (previous.origSpec[e] >= 0)
            return full();

    // Dry-run the transfer enumeration under the *drifted* cluster. The
    // patch is sound only if it emits exactly previous's comm-block
    // sequence — same (producer, consumer, destination) in the same
    // order, since expandWithComm appends comm specs in this order. A
    // drift that creates or destroys transfers changes the solve
    // placement's structure, which only a full re-expansion can build.
    struct Transfer
    {
        int i, j;
        DeviceId src, dst;
        Time span;
    };
    std::vector<Transfer> transfers;
    forEachTransfer(placement, cluster, edge_mb,
                    [&](int i, int j, DeviceId src, DeviceId dst,
                        Time span) {
                        transfers.push_back({i, j, src, dst, span});
                    });
    if (static_cast<int>(transfers.size()) != prev_blocks - k)
        return full();

    std::vector<BlockSpec> specs;
    specs.reserve(static_cast<size_t>(prev_blocks));
    for (int e = 0; e < prev_blocks; ++e)
        specs.push_back(previous.placement.block(e));

    // Real blocks: everything but the span must match the original
    // placement (previous's copies carry the comm deps expandWithComm
    // appended — those must point past the real prefix and follow the
    // original deps verbatim). Spans are recomputed for every block:
    // scaledSpan is cheap, and re-running the formula everywhere keeps
    // the patch correct even when the caller's delta understates the
    // drift.
    for (int i = 0; i < k; ++i) {
        const BlockSpec &ob = placement.block(i);
        BlockSpec &pb = specs[i];
        if (pb.name != ob.name || pb.kind != ob.kind ||
            !(pb.devices == ob.devices) || pb.memory != ob.memory ||
            pb.deps.size() < ob.deps.size())
            return full();
        for (size_t d = 0; d < ob.deps.size(); ++d)
            if (pb.deps[d] != ob.deps[d])
                return full();
        for (size_t d = ob.deps.size(); d < pb.deps.size(); ++d)
            if (pb.deps[d] < k)
                return full();
        pb.span = cluster.scaledSpan(ob.span, ob.devices);
    }

    // Comm blocks: endpoints, consumer, and producer must match the dry
    // run position for position; spans come from the drifted costs.
    for (size_t t = 0; t < transfers.size(); ++t) {
        const int e = k + static_cast<int>(t);
        const Transfer &tr = transfers[t];
        BlockSpec &cb = specs[e];
        if (cb.kind != BlockKind::Comm || previous.indexSpec[e] != tr.j ||
            cb.deps != std::vector<int>{tr.i})
            return full();
        const DeviceId link = lowestDevice(cb.devices);
        if (link < nd || link >= nd + previous.numLinks)
            return full();
        const auto want = tr.src < tr.dst
                              ? std::make_pair(tr.src, tr.dst)
                              : std::make_pair(tr.dst, tr.src);
        if (previous.linkEndpoints[link - nd] != want)
            return full();
        cb.span = tr.span;
    }

    CommExpansion out;
    out.numRealDevices = nd;
    out.numLinks = previous.numLinks;
    out.origSpec = previous.origSpec;
    out.indexSpec = previous.indexSpec;
    out.linkEndpoints = previous.linkEndpoints;
    out.placement = Placement(placement.name() + "+comm",
                              nd + out.numLinks, std::move(specs));
    if (patched)
        *patched = true;
    return out;
}

int
commResourceDemand(const Placement &placement, const ClusterModel &cluster,
                   const std::map<std::pair<int, int>, double> &edge_mb,
                   const CommOptions &)
{
    std::set<std::pair<DeviceId, DeviceId>> links;
    forEachTransfer(placement, cluster, edge_mb,
                    [&](int, int, DeviceId src, DeviceId dst, Time) {
                        links.insert(src < dst ? std::make_pair(src, dst)
                                               : std::make_pair(dst, src));
                    });
    return placement.numDevices() + static_cast<int>(links.size());
}

std::map<std::pair<int, int>, double>
crossDeviceEdgeMB(const Placement &placement, double mb)
{
    std::map<std::pair<int, int>, double> edges;
    for (int j = 0; j < placement.numBlocks(); ++j) {
        for (int i : placement.block(j).deps) {
            if (placement.block(i).devices != placement.block(j).devices)
                edges[{i, j}] = mb;
        }
    }
    return edges;
}

} // namespace tessel
