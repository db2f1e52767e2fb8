#include "workload.h"

#include <algorithm>
#include <cmath>

using tessel::TraceQuery;

namespace perfbench {

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
Rng::below(size_t n)
{
    return static_cast<size_t>(uniform() * static_cast<double>(n));
}

namespace {

template <typename T>
void
shuffle(std::vector<T> *v, Rng &rng)
{
    for (size_t i = v->size(); i > 1; --i)
        std::swap((*v)[i - 1], (*v)[rng.below(i)]);
}

TraceQuery
reference(const char *shape, const char *variant)
{
    TraceQuery q;
    q.shape = shape;
    q.variant = variant;
    q.devices = kDevices;
    q.budgetSec = kBudgetSec;
    return q;
}

std::string
withId(TraceQuery q, const std::string &id)
{
    q.id = id;
    return tessel::formatTraceLine(q);
}

/** Independent stream per (seed, purpose, index). */
Rng
streamRng(uint64_t seed, uint64_t purpose, uint64_t index)
{
    Rng mix(seed ^ (purpose * 0xd1b54a32d192ed03ull));
    mix.next();
    return Rng(mix.next() + index * 0x8cb92ba72f3d8dd7ull);
}

} // namespace

std::vector<TraceQuery>
referenceQueries()
{
    std::vector<TraceQuery> out;
    for (const char *shape : {"V", "X", "M", "NN", "K"})
        for (const char *variant : {"homogeneous", "mem-capped", "hetero"})
            out.push_back(reference(shape, variant));
    return out;
}

std::vector<std::string>
coldPass(uint64_t seed, int pass)
{
    std::vector<TraceQuery> refs = referenceQueries();
    Rng rng = streamRng(seed, 1, static_cast<uint64_t>(pass));
    shuffle(&refs, rng);
    std::vector<std::string> lines;
    for (size_t i = 0; i < refs.size(); ++i)
        lines.push_back(withId(refs[i], "c" + std::to_string(pass) + "-" +
                                            std::to_string(i)));
    return lines;
}

HotStream
hotStream(uint64_t seed, size_t length)
{
    const std::vector<TraceQuery> refs = referenceQueries();
    HotStream out;
    for (size_t i = 0; i < refs.size(); ++i)
        out.lines.push_back(withId(refs[i], "h" + std::to_string(i)));

    // Zipf(s = 1.1) over the fixed reference order.
    std::vector<double> cdf(refs.size());
    double total = 0.0;
    for (size_t r = 0; r < refs.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
        cdf[r] = total;
    }
    Rng rng = streamRng(seed, 2, 0);
    out.order.resize(length);
    for (uint8_t &slot : out.order) {
        const double u = rng.uniform() * total;
        slot = static_cast<uint8_t>(
            std::upper_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
    }
    return out;
}

namespace {

TraceQuery
speedDrift(TraceQuery q, int device, double speed)
{
    q.driftDevice = device;
    q.driftSpeed = speed;
    return q;
}

TraceQuery
linkDrift(TraceQuery q)
{
    q.driftSrc = 0;
    q.driftDst = 1;
    q.driftLatency = 2.0;
    q.driftTimePerMB = 0.5;
    return q;
}

TraceQuery
failure(TraceQuery q, int device)
{
    q.failDevice = device;
    return q;
}

/**
 * The episode's distinct lines: the same on every seed, because their
 * costs differ by up to 100x (NN/homogeneous at nr_cap 6 takes about
 * 0.5 s, at 5 a tenth of that), so a seeded choice of values would make
 * the episode's work depend on the seed. The seed orders the lines and
 * picks the repeats. NN/hetero is left out of the near-misses and of
 * speed drift and failure: each of those is a fresh budget-cut search
 * (about 5-13 s) whose length is set by the wall clock, not by the code
 * under test.
 */
std::vector<TraceQuery>
driftPool()
{
    std::vector<TraceQuery> pool;
    for (const TraceQuery &ref : referenceQueries()) {
        if (ref.shape == "NN" && ref.variant == "hetero")
            continue;
        // One near-miss per stored instance, so each is seeded from its
        // stored reference whatever the order: nr_cap below the default
        // cap of 8, or for hetero a memory limit. Each changes the
        // fingerprint, so each is a neighbor-seeded miss.
        TraceQuery q = ref;
        if (ref.variant == "hetero")
            q.memLimit = 6;
        else
            q.nrCap = 6;
        pool.push_back(q);
    }

    const TraceQuery v_het = reference("V", "hetero");
    const TraceQuery x_het = reference("X", "hetero");
    const TraceQuery m_het = reference("M", "hetero");
    const TraceQuery nn_het = reference("NN", "hetero");
    const TraceQuery k_het = reference("K", "hetero");
    const TraceQuery m_hom = reference("M", "homogeneous");
    const TraceQuery nn_hom = reference("NN", "homogeneous");
    for (const TraceQuery &q : {v_het, x_het, m_het, k_het, m_hom, nn_hom})
        pool.push_back(speedDrift(q, 1, 2.0));
    pool.push_back(speedDrift(reference("V", "homogeneous"), 0, 1.25));
    pool.push_back(speedDrift(reference("K", "homogeneous"), 0, 1.25));
    // Link drift: retiming is slower than a cold search of the drifted
    // instance on X and NN (the answer is still fresh).
    for (const TraceQuery &q : {v_het, x_het, nn_het, k_het, m_hom, nn_hom})
        pool.push_back(linkDrift(q));
    for (const TraceQuery &q : {reference("V", "homogeneous"),
                                reference("X", "homogeneous"), m_hom, nn_hom,
                                reference("K", "homogeneous"), v_het, x_het,
                                m_het, k_het})
        pool.push_back(failure(q, 1));
    return pool;
}

} // namespace

std::vector<std::string>
driftEpisode(uint64_t seed, int episode, bool stale_last)
{
    std::vector<TraceQuery> pool = driftPool();
    Rng rng = streamRng(seed, 4, static_cast<uint64_t>(episode));
    shuffle(&pool, rng);

    std::vector<std::string> lines;
    std::vector<size_t> repeats;
    const std::string prefix = "d" + std::to_string(episode) + "-";
    for (size_t i = 0; i < pool.size(); ++i) {
        lines.push_back(withId(pool[i], prefix + std::to_string(i)));
        repeats.push_back(i);
    }
    // Repeats: a seeded half of the lines, again in seeded order, after
    // every distinct line. Each must hit the plan its first answer
    // published.
    shuffle(&repeats, rng);
    repeats.resize(repeats.size() / 2);
    for (size_t i : repeats)
        lines.push_back(withId(pool[i], prefix + "r" + std::to_string(i)));
    if (stale_last) {
        // M/hetero with device 2 slowed 1.5x: the seeded search needs
        // about 5 s against the 1 s replan budget, so the answer is
        // always the old plan retimed (stale) while the search publishes
        // in the background. Last, so that search overlaps no measured
        // query. (Device 0 at 1.25x needs about 2 s and was now and then
        // answered fresh, which made plan_makespan_sum depend on the
        // race.)
        lines.push_back(withId(speedDrift(reference("M", "hetero"), 2, 1.5),
                               prefix + "stale"));
    }
    return lines;
}

} // namespace perfbench
