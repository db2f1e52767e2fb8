#include "client.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <set>

#include "store/fingerprint.h"
#include "store/serialize.h"
#include "support/hashing.h"
#include "support/timer.h"
#include "support/tracing.h"

using namespace tessel;

namespace perfbench {

bool
buildQuery(const TraceQuery &tq, BuiltQuery *out, std::string *err)
{
    out->id = tq.id;
    out->tenant = tq.tenant;
    out->replan.reset();
    if (tq.isReplan()) {
        out->replan = makeTraceReplan(tq, err);
        return out->replan.has_value();
    }
    std::optional<PlanQuery> query = makeTraceQuery(tq, err);
    if (!query)
        return false;
    out->query = std::move(*query);
    return true;
}

bool
buildFromLine(const std::string &line, BuiltQuery *out, std::string *err)
{
    TraceQuery tq;
    return parseTraceLine(line, &tq, err) && buildQuery(tq, out, err);
}

PlanQuery
BuiltQuery::answered() const
{
    return replan ? makeDriftedQuery(*replan) : query;
}

void
BuiltQuery::pinThreads(int threads)
{
    query.options.numThreads = threads;
    if (replan) {
        replan->base.options.numThreads = threads;
        if (replan->degraded)
            replan->degraded->options.numThreads = threads;
    }
}

std::vector<double>
Tally::queueWaits() const
{
    std::vector<double> out;
    for (const Answer &a : answers)
        out.push_back(a.queueWaitMs);
    return out;
}

void
Tally::addDaemon(ServiceLoop &daemon)
{
    const StoreStats s = daemon.service().cache().stats();
    store.memoryHits += s.memoryHits;
    store.diskHits += s.diskHits;
    store.misses += s.misses;
    store.stores += s.stores;
    store.verifyFailures += s.verifyFailures;
    store.evictions += s.evictions;
    store.lockContended += s.lockContended;
    store.neighborFetches += s.neighborFetches;
    const LoopStats l = daemon.stats();
    loop.submitted += l.submitted;
    loop.accepted += l.accepted;
    loop.rejectedQueueFull += l.rejectedQueueFull;
    loop.rejectedThrottled += l.rejectedThrottled;
    loop.rejectedShutdown += l.rejectedShutdown;
    loop.completed += l.completed;
    loop.queueHighWater = std::max(loop.queueHighWater, l.queueHighWater);
}

std::unique_ptr<ServiceLoop>
Client::openDaemon(const std::string &dir, int workers, size_t memory_capacity)
{
    ServiceLoopOptions opts;
    opts.service.cacheDir = dir;
    opts.service.memoryCapacity = memory_capacity;
    opts.service.numThreads = 1;
    opts.workers = workers;
    opts.queueDepth = 64;
    return std::make_unique<ServiceLoop>(std::move(opts));
}

void
Client::failLocked(const std::string &why)
{
    ++failures_;
    if (notes_.size() < 20)
        notes_.push_back(why);
}

void
Client::feed(ServiceLoop &daemon, const std::vector<std::string> &lines,
             const std::vector<uint8_t> *order, const FeedPlan &plan,
             Tally *tally, WireTimers *timers)
{
    using Clock = std::chrono::steady_clock;
    TraceRecorder &clock = TraceRecorder::instance();
    std::condition_variable cv;
    int in_flight = 0;
    const Stopwatch wall;

    auto answer = [&, this](const ServiceLoop::Response &resp,
                            const std::string &id, const std::string *line,
                            Clock::time_point start, uint64_t submit_us) {
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        const uint64_t done_us = clock.nowMicros();
        // The response line a daemon would write to stdout.
        const Stopwatch format_watch;
        const std::string out = formatResponseLine(id, resp);
        const double format_us = format_watch.seconds() * 1e6;

        const QueryReport &r = resp.report;
        std::lock_guard<std::mutex> lock(mu_);
        if (timers)
            timers->formatUs.add(format_us);
        ++tally->attempted;
        const bool searched = std::string(r.source) == "search";
        Answer a;
        a.latencyMs = latency_ms;
        a.doneSec = wall.seconds();
        a.queueWaitMs = std::max(0.0, latency_ms - r.wallSec * 1e3);
        a.scope = scope_;
        a.searched = searched && !r.stale;
        std::string problem;
        if (resp.admission != Admission::Accepted)
            problem = std::string("rejected: ") +
                      admissionName(resp.admission);
        else if (!resp.error.empty())
            problem = "error: " + resp.error;
        else if (resp.cancelled)
            problem = "cancelled";
        else if (!r.found)
            problem = "not found";
        else if (out.empty())
            problem = "empty response line";
        if (problem.empty()) {
            Seen &seen = seen_[SeenKey{scope_, r.fingerprint, r.stale}];
            a.seen = &seen;
            if (seen.planHash.empty()) {
                seen.line = *line;
                seen.planHash = r.planHash;
            } else if (seen.planHash != r.planHash) {
                problem = "plan_hash " + r.planHash + " differs from " +
                          seen.planHash + " served earlier";
            }
            seen.measured |= plan.measured;
            seen.searchedHere |= plan.measured && (searched || r.stale);
        }
        tally->answers.push_back(std::move(a));
        if (!problem.empty())
            failLocked(r.label + " (" + id + "): " + problem);
        ++tally->bySource[r.source];
        if (r.stale)
            ++tally->stale;
        if (r.degraded)
            ++tally->degraded;
        if (searched || r.stale) {
            ++tally->searched;
            if (!r.seededFrom.empty())
                ++tally->seeded;
        }
        if (plan.keepRows) {
            AnswerRow row;
            row.label = r.label;
            row.source = r.source;
            row.seen = tally->answers.back().seen;
            row.latencyMs = latency_ms;
            row.submitUs = submit_us;
            row.doneUs = done_us;
            row.replanned = r.replanned;
            row.stale = r.stale;
            row.degraded = r.degraded;
            tally->rows.push_back(std::move(row));
        }
        --in_flight;
        cv.notify_all();
    };

    const size_t distinct = lines.size();
    for (size_t i = 0;; ++i) {
        if (order ? wall.seconds() >= plan.seconds : i >= distinct)
            break;
        const std::string &line =
            order ? lines[(*order)[i % order->size()]] : lines[i];
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv.wait(lock, [&] { return in_flight < plan.window; });
            ++in_flight;
        }
        const Stopwatch parse_watch;
        TraceQuery tq;
        std::string err;
        const bool parsed = parseTraceLine(line, &tq, &err);
        const double parse_us = parse_watch.seconds() * 1e6;
        const Stopwatch build_watch;
        BuiltQuery built;
        const bool ok = parsed && buildQuery(tq, &built, &err);
        built.pinThreads(kSweepThreads);
        const double build_us = build_watch.seconds() * 1e6;
        if (timers) {
            timers->parseUs.add(parse_us);
            timers->buildUs.add(build_us);
        }
        if (!ok) {
            std::lock_guard<std::mutex> lock(mu_);
            ++tally->attempted;
            failLocked("bad line: " + err);
            --in_flight;
            continue;
        }
        const Clock::time_point start = Clock::now();
        const uint64_t submit_us = clock.nowMicros();
        auto done = [answer, id = built.id, line_ptr = &line, start,
                     submit_us](const ServiceLoop::Response &resp) {
            answer(resp, id, line_ptr, start, submit_us);
        };
        if (built.replan)
            daemon.submit(std::move(*built.replan), built.tenant,
                          std::move(done));
        else
            daemon.submit(std::move(built.query), built.tenant,
                          std::move(done));
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv.wait(lock, [&] { return in_flight == 0; });
    tally->feedWallSec.push_back(wall.seconds());
    tally->wallSec += tally->feedWallSec.back();
}

void
Client::beginScope()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++scope_;
}

void
Client::verifyNew(PlanCache &cache)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[key, seen] : seen_) {
        if (seen.verified)
            continue;
        seen.verified = true;
        const std::string &fp_hex = std::get<1>(key);
        const bool stale = std::get<2>(key);
        std::string problem;
        BuiltQuery built;
        std::string err;
        if (!buildFromLine(seen.line, &built, &err)) {
            problem = "cannot rebuild query: " + err;
        } else {
            const PlanQuery query = built.answered();
            const TesselOptions eff = query.effectiveOptions();
            const Hash128 fp = fingerprintQuery(query.placement, eff);
            std::optional<TesselResult> plan;
            if (fp.hex() != fp_hex) {
                problem = "fingerprint mismatch";
            } else if (!stale) {
                plan = cache.peek(fp);
                if (!plan)
                    problem = "served plan missing from the store";
            } else {
                // The stale answer is the served base plan retimed under
                // the drift; re-derive it the way replan() does.
                const ReplanRequest &req = *built.replan;
                const TesselOptions base_eff = req.base.effectiveOptions();
                const std::optional<TesselResult> base = cache.peek(
                    fingerprintQuery(req.base.placement, base_eff));
                if (!base) {
                    problem = "stale answer without a stored base plan";
                } else {
                    ReplanSeed seed = prepareReplanSeed(
                        query.placement, eff, *base, &req.delta,
                        phaseOptionsDigest(base_eff) ==
                            phaseOptionsDigest(eff));
                    if (!seed.ok)
                        problem = "retime failed: " + seed.reason;
                    else
                        plan = std::move(seed.retimedResult);
                }
            }
            if (plan) {
                const VerifyOutcome v =
                    verifyResultAgainstQuery(query.placement, eff, *plan);
                if (resultPlanDigest(*plan).hex() != seen.planHash)
                    problem = "stored plan digest differs from plan_hash";
                else if (!v.ok)
                    problem = "verification failed: " + v.reason;
                else if (plan->plan.minMicrobatches() > kMakespanMicrobatches)
                    problem = "plan needs more than N micro-batches";
                else
                    seen.makespan = static_cast<double>(
                        plan->plan.makespanFor(kMakespanMicrobatches));
                seen.breakdown = plan->breakdown;
                const SearchBreakdown &b = plan->breakdown;
                seen.budgetCut =
                    !stale && (b.budgetExhausted ||
                               std::max(b.warmupSeconds, b.cooldownSeconds) >=
                                   0.95 * eff.phaseBudgetSec);
            }
            if (problem.empty() && !stale && !seen.budgetCut) {
                const auto [it, first] = planOf_.emplace(fp_hex, seen.planHash);
                if (!first && it->second != seen.planHash)
                    problem = "plan " + seen.planHash + " differs from plan " +
                              it->second + " of an earlier search";
            }
        }
        if (!problem.empty())
            failLocked(fp_hex.substr(0, 12) + (stale ? " (stale): " : ": ") +
                       problem);
    }
}

double
Client::makespanSum() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // seen_ is ordered by scope, so emplace keeps the first plan.
    std::map<std::string, double> fresh, stale;
    for (const auto &[key, seen] : seen_)
        if (seen.measured)
            (std::get<2>(key) ? stale : fresh)
                .emplace(std::get<1>(key), seen.makespan);
    for (const auto &[fp, makespan] : stale)
        fresh.emplace(fp, makespan);
    double sum = 0.0;
    for (const auto &[fp, makespan] : fresh)
        sum += makespan;
    return sum;
}

std::string
Client::planDigest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::pair<std::string, std::string>> pairs;
    for (const auto &[key, seen] : seen_)
        if (seen.measured && !std::get<2>(key) && !seen.budgetCut)
            pairs.emplace(std::get<1>(key), seen.planHash);
    Hasher h(0x7065726662656e63ull);
    for (const auto &[fp, plan_hash] : pairs) {
        h.addString(fp);
        h.addString(plan_hash);
    }
    return h.digest().hex();
}

size_t
Client::distinctMeasured() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> fps;
    for (const auto &[key, seen] : seen_)
        if (seen.measured)
            fps.insert(std::get<1>(key));
    return fps.size();
}

size_t
Client::budgetCutMeasured() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> fps;
    for (const auto &[key, seen] : seen_)
        if (seen.measured && seen.budgetCut)
            fps.insert(std::get<1>(key));
    return fps.size();
}

bool
Client::budgetCut(const Answer &a) const
{
    if (!a.searched || !a.seen)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    return a.seen->budgetCut;
}

Timed
timedPart(const Tally &tally, const Client &client)
{
    Timed t;
    t.wallSec = tally.wallSec;
    for (const Answer &a : tally.answers) {
        if (client.budgetCut(a)) {
            ++t.cut;
            t.cutSec += a.latencyMs / 1e3;
        } else {
            t.latencyMs.push_back(a.latencyMs);
        }
    }
    t.wallSec -= t.cutSec;
    return t;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
