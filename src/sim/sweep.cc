#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <stdexcept>
#include <thread>

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

/** A trace job's replay knobs (its run length, observer, handle). */
TraceReplayOptions
replayOptions(const SweepJob &job)
{
    TraceReplayOptions opts;
    opts.maxAccesses = job.length;
    opts.observe = job.observe;
    opts.handle = job.traceHandle;
    return opts;
}

/**
 * True when @p job runs on a shared source through runShared(): every
 * trace job (its failures, a missing file or a bad config, are the same
 * inside a unit), and every MissRate or Timed job that names a spec2k
 * workload and a nonzero length. Custom and invalid jobs run alone
 * through runOne().
 */
bool
sharesSource(const SweepJob &job)
{
    switch (job.kind) {
      case SweepJob::Kind::Trace:
        return true;
      case SweepJob::Kind::MissRate:
      case SweepJob::Kind::Timed:
        return isSpec2kName(job.workload) && job.length != 0;
      case SweepJob::Kind::Custom:
        return false;
    }
    return false;
}

/**
 * Run a Custom job, or report why a MissRate or Timed job is invalid;
 * every failure is captured in the outcome.
 */
SweepOutcome
runOne(const SweepJob &job, std::size_t index, std::uint64_t seed)
{
    SweepOutcome out;
    out.index = index;
    out.seed = seed;
    const auto start = Clock::now();
    try {
        if (job.kind == SweepJob::Kind::Custom) {
            if (!job.custom)
                throw std::invalid_argument("custom job '" +
                                            job.workload +
                                            "' has no callable");
            out.customEvents = job.custom(out.seed);
        } else if (!isSpec2kName(job.workload)) {
            throw std::invalid_argument("unknown workload '" +
                                        job.workload + "'");
        } else {
            throw std::invalid_argument("zero-length job for '" +
                                        job.workload + "'");
        }
    } catch (...) {
        out.error = errorOf(std::current_exception());
    }
    out.seconds = secondsSince(start);
    return out;
}

/**
 * Hand each member of a shared unit its DutRunOf result (into
 * @p slot of its outcome), or its own error, or the unit's @p error.
 * Its seconds are its own time plus an equal share of the rest of the
 * unit's @p wall time (source construction, generation or trace
 * reading, a Timed unit's timestamp passes), so the members' seconds
 * sum to the unit's wall time.
 */
template <class Result>
void
settle(std::vector<DutRunOf<Result>> &duts,
       std::optional<Result> SweepOutcome::*slot,
       const std::vector<std::size_t> &members,
       const std::vector<std::uint64_t> &seeds, const std::string &error,
       double wall, std::vector<SweepOutcome> &outcomes)
{
    duts.resize(members.size()); // empty when the source failed
    double own = 0.0;
    for (const DutRunOf<Result> &d : duts)
        own += d.seconds;
    const double share = (wall - own) / double(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
        SweepOutcome &out = outcomes[members[k]];
        out.index = members[k];
        out.seed = seeds[members[k]];
        if (!error.empty())
            out.error = error;
        else if (duts[k].error)
            out.error = errorOf(duts[k].error);
        else
            out.*slot = std::move(duts[k].result);
        out.seconds = duts[k].seconds + share;
    }
}

/**
 * Run the jobs @p members (one or more sharesSource() jobs with one
 * planUnits() key) off one source: MissRate units through
 * Session::runEach(), which feeds each generated access batch to every
 * member's cache; Trace units through the same loop over one read of
 * their trace window; and Timed units through runTimedEach(), which runs
 * every member's memory pass over each µop batch and then one timestamp
 * pass for all of them. Each result is bit-identical to the member's own
 * serial runner call; a member whose config fails fails alone.
 */
void
runShared(const std::vector<SweepJob> &jobs,
          const std::vector<std::size_t> &members,
          const std::vector<std::uint64_t> &seeds,
          std::vector<SweepOutcome> &outcomes)
{
    const auto start = Clock::now();
    const SweepJob &lead = jobs[members.front()];
    const std::uint64_t seed = seeds[members.front()];
    const bool timed = lead.kind == SweepJob::Kind::Timed;
    std::vector<CacheConfig> configs;
    configs.reserve(members.size());
    for (const std::size_t i : members)
        configs.push_back(jobs[i].config);
    std::vector<DutRun> miss;
    std::vector<TimedDutRun> cores;
    std::string error; // the shared source failed: every member fails
    try {
        if (timed) {
            cores = runTimedEach(lead.workload, configs, lead.length,
                                 seed, lead.hierarchy);
        } else if (lead.kind == SweepJob::Kind::Trace) {
            miss = Session(lead.tracePath, std::move(configs), lead.shard,
                           replayOptions(lead))
                       .runEach();
        } else {
            SpecWorkload wl = makeSpecWorkload(lead.workload, seed);
            AccessStream &stream =
                lead.side == StreamSide::Inst ? *wl.inst : *wl.data;
            miss = Session(stream, std::move(configs), lead.length,
                           lead.workload)
                       .runEach();
        }
    } catch (...) {
        error = errorOf(std::current_exception());
    }
    const double wall = secondsSince(start);
    if (timed)
        settle(cores, &SweepOutcome::timed, members, seeds, error, wall,
               outcomes);
    else
        settle(miss, &SweepOutcome::miss, members, seeds, error, wall,
               outcomes);
}

/** What jobs must agree on to share one source. */
struct UnitKey
{
    SweepJob::Kind kind = SweepJob::Kind::MissRate;
    std::string workload;
    std::uint64_t length = 0;          ///< accesses, µops or records
    std::uint64_t seed = 0;            ///< resolved; MissRate and Timed
    StreamSide side = StreamSide::Data; ///< MissRate only
    HierarchyParams hierarchy;          ///< Timed only
    // Trace only.
    std::string tracePath;
    TraceShard shard;
    ObserverConfig observe;
    std::uintptr_t traceHandle = 0; ///< the shared handle's identity

    auto operator<=>(const UnitKey &) const = default;
};

/**
 * Trace units aim at this many units per worker. A trace unit costs
 * about one cache per member (reading the window is cheap next to
 * them), so a few large units leave workers idle at the end of the
 * sweep; ~4 per worker keeps the tail short while each unit still
 * reads its window once for several caches.
 */
constexpr std::size_t kTraceUnitsPerWorker = 4;

/**
 * Partition the jobs into work units. MissRate jobs that share
 * (workload, side, resolved seed, length) form one unit, which
 * generates that stream once for all of them; Timed jobs that share
 * (workload, resolved seed, length, HierarchyParams) form one unit,
 * which generates that µop stream once for all of their cores; Trace
 * jobs that share (path, shard window, length, observer config,
 * handle identity) form one unit, which reads that window once for all
 * of their caches. Every other job is a unit of its own.
 * Units are ordered by their first job.
 *
 * Splitting, always in halves of the largest eligible unit: on more
 * than one thread, trace units are split while the largest holds more
 * than ⌈trace jobs ÷ (4 × threads)⌉ members; then, while there are
 * fewer units than @p threads, the largest unit of any kind is split,
 * so a sweep over one workload still keeps every worker busy.
 */
std::vector<std::vector<std::size_t>>
planUnits(const std::vector<SweepJob> &jobs,
          const std::vector<std::uint64_t> &seeds, unsigned threads)
{
    std::map<UnitKey, std::size_t> shared;
    std::vector<std::vector<std::size_t>> units;
    std::size_t trace_jobs = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &j = jobs[i];
        const bool miss = j.kind == SweepJob::Kind::MissRate;
        const bool timed = j.kind == SweepJob::Kind::Timed;
        const bool trace = j.kind == SweepJob::Kind::Trace;
        // Custom and invalid jobs stay on their own for runOne.
        if (!sharesSource(j)) {
            units.push_back({i});
            continue;
        }
        UnitKey key;
        key.kind = j.kind;
        key.workload = j.workload;
        key.length = j.length;
        if (miss)
            key.side = j.side;
        if (timed)
            key.hierarchy = j.hierarchy;
        if (trace) {
            key.tracePath = j.tracePath;
            key.shard = j.shard;
            key.observe = j.observe;
            key.traceHandle =
                reinterpret_cast<std::uintptr_t>(j.traceHandle.get());
            ++trace_jobs;
        } else {
            key.seed = seeds[i];
        }
        const auto [it, fresh] = shared.try_emplace(key, units.size());
        if (fresh)
            units.emplace_back();
        units[it->second].push_back(i);
    }

    // Halve the largest unit that @p eligible admits, if it has more
    // than @p floor members; false when there is none.
    auto split_largest = [&](auto eligible, std::size_t floor) {
        auto largest = units.end();
        for (auto u = units.begin(); u != units.end(); ++u)
            if (eligible(*u) &&
                (largest == units.end() || u->size() > largest->size()))
                largest = u;
        if (largest == units.end() || largest->size() <= floor)
            return false;
        const auto half =
            largest->begin() + std::ptrdiff_t(largest->size() / 2);
        std::vector<std::size_t> tail(half, largest->end());
        largest->erase(half, largest->end());
        units.insert(largest + 1, std::move(tail));
        return true;
    };
    if (threads > 1 && trace_jobs > 0) {
        const std::size_t per_unit =
            (trace_jobs + kTraceUnitsPerWorker * threads - 1) /
            (kTraceUnitsPerWorker * threads);
        auto is_trace = [&](const std::vector<std::size_t> &u) {
            return jobs[u.front()].kind == SweepJob::Kind::Trace;
        };
        while (split_largest(is_trace, per_unit)) {
        }
    }
    auto any = [](const std::vector<std::size_t> &) { return true; };
    while (units.size() < threads && split_largest(any, 1)) {
    }
    return units;
}

/** Worker threads runSweep() starts for @p jobs. */
unsigned
sweepThreads(const std::vector<SweepJob> &jobs, const SweepOptions &options)
{
    const unsigned requested =
        options.jobs ? options.jobs : defaultJobs();
    return static_cast<unsigned>(
        std::min<std::size_t>(std::max(requested, 1u), jobs.size()));
}

/** Each job's workload seed: its own, or derived from its index. */
std::vector<std::uint64_t>
sweepSeeds(const std::vector<SweepJob> &jobs, const SweepOptions &options)
{
    std::vector<std::uint64_t> seeds(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        seeds[i] = jobs[i].seed ? *jobs[i].seed
                                : sweepSeed(options.baseSeed, i);
    return seeds;
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
                      std::size_t, ObserverConfig observe)
{
    SweepJob j;
    j.kind = Kind::Trace;
    j.workload = "trace:" + path;
    j.config = std::move(config);
    j.length = max_accesses;
    j.tracePath = std::move(path);
    j.shard = shard;
    j.observe = observe;
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

std::vector<std::vector<std::size_t>>
planSweepUnits(const std::vector<SweepJob> &jobs,
               const SweepOptions &options)
{
    return planUnits(jobs, sweepSeeds(jobs, options),
                     sweepThreads(jobs, options));
}

SweepRun
runSweep(const std::vector<SweepJob> &jobs, const SweepOptions &options)
{
    SweepRun run;
    run.outcomes.resize(jobs.size());

    const unsigned threads = sweepThreads(jobs, options);
    const std::vector<std::uint64_t> seeds = sweepSeeds(jobs, options);
    const auto units = planUnits(jobs, seeds, threads);

    const auto start = Clock::now();
    std::atomic<std::size_t> next{0};

    auto worker = [&] {
        for (;;) {
            const std::size_t u =
                next.fetch_add(1, std::memory_order_relaxed);
            if (u >= units.size())
                return;
            const std::vector<std::size_t> &members = units[u];
            const std::size_t first = members.front();
            if (sharesSource(jobs[first]))
                runShared(jobs, members, seeds, run.outcomes);
            else
                run.outcomes[first] =
                    runOne(jobs[first], first, seeds[first]);
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
    run.summary.wallSeconds = secondsSince(start);
    for (const auto &out : run.outcomes) {
        run.summary.events += eventsOf(out);
        if (!out.ok())
            ++run.summary.failed;
    }
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
