/**
 * @file
 * Seeded JSONL streams for the three planning workloads. Every line is
 * produced by the daemon's own trace serializer (formatTraceLine), so
 * the program under test sees exactly what `tessel_service --serve`
 * would read on stdin.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/trace.h"

namespace perfbench {

/** Devices per reference shape and per-query search budget (seconds). */
constexpr int kDevices = 4;
constexpr double kBudgetSec = 10.0;

/** Deterministic 64-bit generator (splitmix64): same seed, same stream
 * on every platform and standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    size_t below(size_t n);

  private:
    uint64_t s_;
};

/** The 15 reference queries (V/X/M/NN/K x homogeneous/mem-capped/
 * hetero), in reference order. */
std::vector<tessel::TraceQuery> referenceQueries();

/** The reference queries as JSONL, in seeded order (pass @p pass). */
std::vector<std::string> coldPass(uint64_t seed, int pass);

/**
 * Hot stream: one line per reference instance plus a long seeded,
 * Zipf-skewed sequence of instance indices. Rank order is fixed (the
 * reference order), so every seed draws from the same distribution and
 * only the sampled sequence changes.
 */
struct HotStream
{
    std::vector<std::string> lines;
    std::vector<uint8_t> order;
};
HotStream hotStream(uint64_t seed, size_t length);

/**
 * One drift episode: distinct near-misses (nr_cap / mem_limit
 * perturbations) and drift / failure injections in seeded order, then
 * seeded repeats of half of them. With @p stale_last, a replan that is
 * always answered stale comes last.
 */
std::vector<std::string> driftEpisode(uint64_t seed, int episode,
                                      bool stale_last);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
