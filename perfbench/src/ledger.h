/**
 * @file
 * Per-layer ledger of a traced run: layer probes (the benchmark times
 * each layer's public functions itself, on the instances the workload
 * served), the program's own flight-recorder spans and stats counters
 * read side by side, per-query rows, and the per_layer metrics.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "support/metrics.h"
#include "support/tracing.h"

namespace perfbench {

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a traced run hands to the ledger. */
struct LedgerInputs
{
    std::string workload;
    Pinned pinned;
    const Client *client = nullptr;
    const Tally *untraced = nullptr;
    const Tally *traced = nullptr;
    /** Flight-recorder spans of the traced phase, and how many were
     * recorded in total (more than kept when the ring wrapped). */
    std::vector<tessel::SpanRecord> spans;
    uint64_t spansRecorded = 0;
    /** Registry counter deltas (summed over labels) of the traced
     * phase, taken while each daemon was alive. */
    std::map<std::string, uint64_t> registryDelta;
    WireTimers wire;
    /** A store holding every plan the workload served (probes read it). */
    std::string storeDir;
    /** Scratch directory the probes may write. */
    std::string scratchDir;
    double phaseBudgetSec = 5.0;
};

/** The ledger's output. */
struct LedgerReport
{
    std::vector<Metric> metrics; ///< per_layer metrics, in table order
    std::string text;            ///< human-readable tables
    std::string json;            ///< ledger file contents
};

LedgerReport buildLedger(const LedgerInputs &in);

/** Relative disagreement beyond which an outside-timed number and the
 * program's own number for the same layer are listed as disagreeing. */
constexpr double kAgreementBound = 0.25;

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
