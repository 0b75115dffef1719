#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "sim/config.hh"
#include "sim/session.hh"
#include "sim/trace_replay.hh"

namespace bsim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Simulated events (accesses or uops) one outcome contributed. */
std::uint64_t
eventsOf(const SweepOutcome &out)
{
    if (out.miss)
        return out.miss->stats.accesses;
    if (out.timed)
        return out.timed->cpu.uops;
    if (out.customEvents)
        return *out.customEvents;
    return 0;
}

/** The message of a captured job failure. */
std::string
errorOf(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/** Run one job on its own; every failure is captured in the outcome. */
SweepOutcome
runOne(const SweepJob &job, std::size_t index, std::uint64_t seed)
{
    SweepOutcome out;
    out.index = index;
    out.seed = seed;
    const auto start = Clock::now();
    try {
        // Custom jobs carry their own workload in the callable and
        // trace jobs theirs in the file; the spec2k name and length
        // checks only apply to the built-in synthetic runners.
        if (job.kind == SweepJob::Kind::MissRate ||
            job.kind == SweepJob::Kind::Timed) {
            if (!isSpec2kName(job.workload))
                throw std::invalid_argument("unknown workload '" +
                                            job.workload + "'");
            if (job.length == 0)
                throw std::invalid_argument("zero-length job for '" +
                                            job.workload + "'");
        }
        switch (job.kind) {
          case SweepJob::Kind::MissRate:
            if (job.sample)
                out.miss = runMissRateSampled(job.workload, job.side,
                                              job.config, job.length,
                                              *job.sample, out.seed);
            else
                out.miss = runMissRate(job.workload, job.side,
                                       job.config, job.length, out.seed);
            break;
          case SweepJob::Kind::Timed:
            out.timed = runTimed(job.workload, job.config, job.length,
                                 out.seed, job.hierarchy);
            break;
          case SweepJob::Kind::Custom:
            if (!job.custom)
                throw std::invalid_argument("custom job '" +
                                            job.workload +
                                            "' has no callable");
            out.customEvents = job.custom(out.seed);
            break;
          case SweepJob::Kind::Trace: {
            TraceReplayOptions opts;
            opts.maxAccesses = job.length;
            opts.batchLen = job.traceBatchLen;
            opts.observe = job.observe;
            opts.handle = job.traceHandle;
            if (job.sample)
                out.miss = runTraceSampled(job.tracePath, job.config,
                                           *job.sample, opts,
                                           job.sampleFirstUnit,
                                           job.sampleUnitCount);
            else
                out.miss = runTraceReplay(job.tracePath, job.config,
                                          job.shard, opts);
            break;
          }
        }
    } catch (...) {
        out.error = errorOf(std::current_exception());
    }
    out.seconds = secondsSince(start);
    return out;
}

/**
 * Run the MissRate jobs @p members, which share (workload, side, seed,
 * length), off one generated stream: Session::runEach() pulls each
 * batch once and feeds it to every member's cache, so each result is
 * bit-identical to the member's own runMissRate(). A member whose cache
 * fails fails alone. Its seconds are its own time plus an equal share
 * of the rest of the unit (workload construction and stream
 * generation), so the members' seconds sum to the unit's wall time.
 */
void
runShared(const std::vector<SweepJob> &jobs,
          const std::vector<std::size_t> &members, std::uint64_t seed,
          std::vector<SweepOutcome> &outcomes)
{
    const auto start = Clock::now();
    const SweepJob &lead = jobs[members.front()];
    std::vector<CacheConfig> configs;
    configs.reserve(members.size());
    for (const std::size_t i : members)
        configs.push_back(jobs[i].config);
    std::vector<DutRun> duts(members.size());
    std::string error; // the shared source failed: every member fails
    try {
        SpecWorkload wl = makeSpecWorkload(lead.workload, seed);
        AccessStream &stream =
            lead.side == StreamSide::Inst ? *wl.inst : *wl.data;
        duts = Session(stream, std::move(configs), lead.length,
                       lead.workload)
                   .runEach();
    } catch (...) {
        error = errorOf(std::current_exception());
    }
    double own = 0.0;
    for (const DutRun &d : duts)
        own += d.seconds;
    const double share =
        (secondsSince(start) - own) / double(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
        SweepOutcome &out = outcomes[members[k]];
        out.index = members[k];
        out.seed = seed;
        if (!error.empty())
            out.error = error;
        else if (duts[k].error)
            out.error = errorOf(duts[k].error);
        else
            out.miss = std::move(duts[k].result);
        out.seconds = duts[k].seconds + share;
    }
}

/**
 * Partition the jobs into work units: unsampled MissRate jobs that
 * share (workload, side, resolved seed, length) form one unit, which
 * generates that stream once for all of them; every other job is a
 * unit of its own. Units are ordered by their first job. While there
 * are fewer units than @p threads, the largest unit is split in half,
 * so a sweep over one workload still keeps every worker busy.
 */
std::vector<std::vector<std::size_t>>
planUnits(const std::vector<SweepJob> &jobs,
          const std::vector<std::uint64_t> &seeds, unsigned threads)
{
    using Key = std::tuple<std::string, StreamSide, std::uint64_t,
                           std::uint64_t>;
    std::map<Key, std::size_t> shared;
    std::vector<std::vector<std::size_t>> units;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &j = jobs[i];
        // Invalid jobs stay on their own so runOne reports them.
        if (j.kind != SweepJob::Kind::MissRate || j.sample ||
            !isSpec2kName(j.workload) || j.length == 0) {
            units.push_back({i});
            continue;
        }
        const auto [it, fresh] = shared.try_emplace(
            Key{j.workload, j.side, seeds[i], j.length}, units.size());
        if (fresh)
            units.emplace_back();
        units[it->second].push_back(i);
    }
    while (units.size() < threads) {
        const auto largest = std::max_element(
            units.begin(), units.end(),
            [](const auto &a, const auto &b) { return a.size() < b.size(); });
        if (largest->size() < 2)
            break;
        const auto half =
            largest->begin() + std::ptrdiff_t(largest->size() / 2);
        std::vector<std::size_t> tail(half, largest->end());
        largest->erase(half, largest->end());
        units.insert(largest + 1, std::move(tail));
    }
    return units;
}

} // namespace

SweepJob
SweepJob::missRate(std::string workload, StreamSide side,
                   CacheConfig config, std::uint64_t accesses,
                   std::optional<std::uint64_t> seed)
{
    SweepJob j;
    j.kind = Kind::MissRate;
    j.workload = std::move(workload);
    j.side = side;
    j.config = std::move(config);
    j.length = accesses;
    j.seed = seed;
    return j;
}

SweepJob
SweepJob::timed(std::string workload, CacheConfig config,
                std::uint64_t uops, std::optional<std::uint64_t> seed,
                HierarchyParams hierarchy)
{
    SweepJob j;
    j.kind = Kind::Timed;
    j.workload = std::move(workload);
    j.config = std::move(config);
    j.length = uops;
    j.seed = seed;
    j.hierarchy = hierarchy;
    return j;
}

SweepJob
SweepJob::customJob(std::string label,
                    std::function<std::uint64_t(std::uint64_t)> fn,
                    std::optional<std::uint64_t> seed)
{
    SweepJob j;
    j.kind = Kind::Custom;
    j.workload = std::move(label);
    j.custom = std::move(fn);
    j.seed = seed;
    return j;
}

SweepJob
SweepJob::traceReplay(std::string path, TraceShard shard,
                      CacheConfig config, std::uint64_t max_accesses,
                      std::size_t batch_len, ObserverConfig observe)
{
    SweepJob j;
    j.kind = Kind::Trace;
    j.workload = "trace:" + path;
    j.config = std::move(config);
    j.length = max_accesses;
    j.tracePath = std::move(path);
    j.shard = shard;
    j.traceBatchLen = batch_len;
    j.observe = observe;
    return j;
}

SweepJob
SweepJob::traceSampled(std::string path, CacheConfig config,
                       SamplePlan plan, std::uint64_t first_unit,
                       std::uint64_t unit_count,
                       std::uint64_t max_accesses, std::size_t batch_len)
{
    SweepJob j;
    j.kind = Kind::Trace;
    j.workload = "trace:" + path + "#sample" + plan.toString();
    j.config = std::move(config);
    j.length = max_accesses;
    j.tracePath = std::move(path);
    j.traceBatchLen = batch_len;
    j.sample = plan;
    j.sampleFirstUnit = first_unit;
    j.sampleUnitCount = unit_count;
    return j;
}

std::uint64_t
sweepSeed(std::uint64_t base_seed, std::size_t job_index)
{
    // One splitmix64 step at position (job_index + 1) of the stream
    // seeded by base_seed; +1 keeps job 0 from echoing the bare base
    // seed's first output used elsewhere.
    std::uint64_t x = base_seed +
                      (static_cast<std::uint64_t>(job_index) + 1) *
                          0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
SweepSummary::eventsPerSecond() const
{
    return wallSeconds > 0.0 ? double(events) / wallSeconds : 0.0;
}

SweepRun
runSweep(const std::vector<SweepJob> &jobs, const SweepOptions &options)
{
    SweepRun run;
    run.outcomes.resize(jobs.size());

    const unsigned requested =
        options.jobs ? options.jobs : defaultJobs();
    const unsigned threads = static_cast<unsigned>(
        std::min<std::size_t>(std::max(requested, 1u), jobs.size()));

    std::vector<std::uint64_t> seeds(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        seeds[i] = jobs[i].seed ? *jobs[i].seed
                                : sweepSeed(options.baseSeed, i);
    const auto units = planUnits(jobs, seeds, threads);

    const auto start = Clock::now();
    std::atomic<std::size_t> next{0};
    std::mutex progress_mutex;
    std::size_t done = 0;
    std::uint64_t events = 0;

    auto worker = [&] {
        for (;;) {
            const std::size_t u =
                next.fetch_add(1, std::memory_order_relaxed);
            if (u >= units.size())
                return;
            const std::vector<std::size_t> &members = units[u];
            const std::size_t first = members.front();
            if (members.size() == 1)
                run.outcomes[first] =
                    runOne(jobs[first], first, seeds[first]);
            else
                runShared(jobs, members, seeds[first], run.outcomes);

            std::lock_guard<std::mutex> lock(progress_mutex);
            for (const std::size_t i : members) {
                ++done;
                events += eventsOf(run.outcomes[i]);
                if (options.onProgress) {
                    SweepProgress p;
                    p.done = done;
                    p.total = jobs.size();
                    p.events = events;
                    p.seconds = secondsSince(start);
                    options.onProgress(p);
                }
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    run.summary.jobs = jobs.size();
    run.summary.threads = std::max(threads, 1u);
    run.summary.events = events;
    run.summary.wallSeconds = secondsSince(start);
    for (const auto &out : run.outcomes)
        if (!out.ok())
            ++run.summary.failed;
    return run;
}

const MissRateResult &
missResult(const SweepOutcome &outcome)
{
    if (!outcome.ok())
        bsim_fatal("sweep job ", outcome.index, " failed: ",
                   outcome.error);
    if (!outcome.miss)
        bsim_fatal("sweep job ", outcome.index,
                   " is not a miss-rate job");
    return *outcome.miss;
}

const TimedResult &
timedResult(const SweepOutcome &outcome)
{
    if (!outcome.ok())
        bsim_fatal("sweep job ", outcome.index, " failed: ",
                   outcome.error);
    if (!outcome.timed)
        bsim_fatal("sweep job ", outcome.index, " is not a timed job");
    return *outcome.timed;
}

void
printSweepSummary(const SweepSummary &summary)
{
    printSweepSummary(summary, stdout);
}

void
printSweepSummary(const SweepSummary &summary, std::FILE *out)
{
    Table t({"jobs", "failed", "threads", "wall-s", "sim-events",
             "Mevents/s"});
    t.row()
        .cell(std::uint64_t(summary.jobs))
        .cell(std::uint64_t(summary.failed))
        .cell(summary.threads)
        .cell(summary.wallSeconds, 2)
        .cell(summary.events)
        .cell(summary.eventsPerSecond() / 1e6, 2);
    t.print("sweep engine", out);
}

} // namespace bsim
