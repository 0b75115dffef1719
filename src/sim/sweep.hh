/**
 * @file
 * Parallel sweep engine: runs a vector of independent experiment cells
 * (workload x side x CacheConfig x run length) on a fixed-size worker
 * pool and returns results in submission order.
 *
 * Work units: MissRate jobs that share (workload, side, resolved seed,
 * run length) are one unit. The unit builds the workload once and feeds
 * each generated batch to every member's cache (Session::runEach), so a
 * grid of N caches over one stream generates that stream once instead
 * of N times. Timed jobs that share (workload, resolved seed, run
 * length, HierarchyParams) are one unit the same way: runTimedEach()
 * generates each µop batch once and steps every member's own core and
 * hierarchy over it. Trace jobs that share (trace path, shard window,
 * run length, observer config, shared-handle identity) are one unit
 * too: Session::runEach reads and validates each span of the window
 * once and feeds it to every member's cache while it is still in the
 * CPU cache. Either way every cache takes its records through
 * accessBatch in kDefaultBatchLen chunks; the chunk length is a
 * constant, not part of any job. Every other job — Custom, and jobs whose
 * source no other job shares — is a unit of its own and runs exactly as
 * a serial runner call would.
 *
 * Splitting: a trace unit costs about one cache per member, so on more
 * than one thread trace units are halved while the largest holds more
 * than ⌈trace jobs ÷ (4 × threads)⌉ members — about four units per
 * worker, which keeps every worker busy to the end (8 caches × 13
 * shards at 4 threads run as 26 units of 4). A generated source costs
 * about as much as one cache, so those units keep the coarser rule
 * that applies last to every kind: while there are fewer units than
 * worker threads, the largest unit is split in half.
 *
 * Determinism contract: a job's workload seed depends only on the job
 * itself — either the explicit SweepJob::seed, or
 * sweepSeed(SweepOptions::baseSeed, job_index) — never on thread count
 * or scheduling. Each cache sees exactly the records its job's own
 * stream would give it, whichever unit it lands in and however units
 * are split, so an N-thread sweep is bit-identical to the same sweep on
 * one thread and to one serial runner call per job. Units share no
 * mutable state — a unit owns its workload and every cache model it
 * feeds — which is what makes the fan-out safe.
 */

#ifndef BSIM_SIM_SWEEP_HH
#define BSIM_SIM_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "workload/trace_reader.hh"

namespace bsim {

/** One experiment cell submitted to runSweep(). */
struct SweepJob
{
    /** Which runner executes the cell. */
    enum class Kind : std::uint8_t {
        MissRate, ///< cache over a generated stream via Session::runEach()
        Timed,    ///< OOO core + two-level hierarchy via runTimedEach()
        Custom,   ///< caller-supplied callable (e.g. a verify fuzz case)
        Trace,    ///< trace-window replay via Session::runEach()
    };

    Kind kind = Kind::MissRate;
    std::string workload;               ///< one of spec2kNames()
    StreamSide side = StreamSide::Data; ///< MissRate jobs only
    CacheConfig config;
    std::uint64_t length = 0; ///< accesses (MissRate) or uops (Timed)
    /**
     * Workload seed. Unset derives sweepSeed(baseSeed, job_index); set
     * it explicitly to reproduce a specific serial runMissRate/runTimed
     * call (the benches pin kDefaultSeed so their tables match the
     * serial numbers recorded in EXPERIMENTS.md).
     */
    std::optional<std::uint64_t> seed;
    HierarchyParams hierarchy; ///< Timed jobs only
    /**
     * Custom jobs only: runs on a worker with the job's derived seed and
     * returns the number of simulated events it performed (counted into
     * SweepSummary::events). Throwing fails the job like any runner. The
     * callable must be self-contained — it shares no mutable state with
     * other jobs, preserving the engine's determinism contract.
     */
    std::function<std::uint64_t(std::uint64_t seed)> custom;
    /** Trace jobs only: file to replay and the record window owned. */
    std::string tracePath;
    TraceShard shard;
    /**
     * Trace jobs only: optional shared open-trace handle matching
     * tracePath (workload/trace_reader.hh). Concurrent jobs then replay
     * windows of one mmap instead of re-opening the file per job; the
     * results are bit-identical either way.
     */
    TraceHandlePtr traceHandle;
    /** Trace jobs only: ride a StatsObserver along with the replay. */
    ObserverConfig observe;
    static SweepJob missRate(std::string workload, StreamSide side,
                             CacheConfig config, std::uint64_t accesses,
                             std::optional<std::uint64_t> seed = {});
    static SweepJob timed(std::string workload, CacheConfig config,
                          std::uint64_t uops,
                          std::optional<std::uint64_t> seed = {},
                          HierarchyParams hierarchy = {});
    /** @p label is reported in place of a workload name on failure. */
    static SweepJob customJob(
        std::string label,
        std::function<std::uint64_t(std::uint64_t seed)> fn,
        std::optional<std::uint64_t> seed = {});
    /**
     * Replay one window of a trace file (sim/trace_replay.hh).
     * @p max_accesses 0 replays the whole window. The trace is the
     * workload, so the derived seed is unused — the job is a pure
     * function of (path, shard, config), which is what makes sharded
     * replay bit-identical at any thread count. @p observe mirrors
     * TraceReplayOptions (held as a field here so sweep.hh does not
     * need trace_replay.hh, which includes it). The unnamed fifth
     * parameter is ignored: it was a batch length, and perfbench still
     * passes one positionally until its own code drops the argument.
     */
    static SweepJob traceReplay(std::string path, TraceShard shard,
                                CacheConfig config,
                                std::uint64_t max_accesses = 0,
                                std::size_t = 0,
                                ObserverConfig observe = {});
};

/** Result of one job, delivered in submission order. */
struct SweepOutcome
{
    std::size_t index = 0;  ///< position in the submitted job vector
    std::uint64_t seed = 0; ///< workload seed the job actually used
    std::optional<MissRateResult> miss; ///< MissRate jobs
    std::optional<TimedResult> timed;   ///< Timed jobs
    /** Custom jobs: events the callable reported. */
    std::optional<std::uint64_t> customEvents;
    std::string error; ///< non-empty if the job threw
    /**
     * Host time of this job. A job that ran alone reports its wall
     * time. A job that shared a stream reports its own build,
     * simulation and result time plus 1/N of the rest of its N-job
     * unit (workload construction and access or µop generation), so
     * the members' seconds sum to the unit's wall time.
     */
    double seconds = 0.0;

    bool ok() const { return error.empty(); }
};

/** Aggregate metrics of one runSweep() call. */
struct SweepSummary
{
    std::size_t jobs = 0;
    std::size_t failed = 0;
    unsigned threads = 0;
    std::uint64_t events = 0; ///< simulated accesses + uops
    double wallSeconds = 0.0;

    double eventsPerSecond() const;

    /**
     * Fold in another sweep's metrics (a harness that runs several
     * sweeps reports one combined perf record): counts add, wall time
     * adds (the sweeps ran back to back).
     */
    void
    merge(const SweepSummary &other)
    {
        jobs += other.jobs;
        failed += other.failed;
        threads = threads > other.threads ? threads : other.threads;
        events += other.events;
        wallSeconds += other.wallSeconds;
    }
};

/** Snapshot handed to the progress hook after each job completes. */
struct SweepProgress
{
    std::size_t done = 0;
    std::size_t total = 0;
    std::uint64_t events = 0; ///< simulated accesses + uops so far
    double seconds = 0.0;     ///< wall time since the sweep started
};

/** Knobs for one runSweep() call. */
struct SweepOptions
{
    /** Worker threads; 0 uses defaultJobs() (BSIM_JOBS / --jobs). */
    unsigned jobs = 0;
    /** Base for per-job seed derivation (jobs without explicit seeds). */
    std::uint64_t baseSeed = kDefaultSeed;
    /**
     * Invoked once per job, when the job's work unit completes (the
     * members of a shared unit report back to back). Calls are
     * serialized (a mutex) but may come from any worker thread; the
     * hook must not throw.
     */
    std::function<void(const SweepProgress &)> onProgress;
};

/** Outcomes (submission order) plus the aggregate metrics. */
struct SweepRun
{
    std::vector<SweepOutcome> outcomes;
    SweepSummary summary;
};

/**
 * Per-job seed derivation: one splitmix64 step keyed by the job index.
 * Pure function of (base_seed, job_index), so results cannot depend on
 * scheduling.
 */
std::uint64_t sweepSeed(std::uint64_t base_seed, std::size_t job_index);

/**
 * The work units runSweep(@p jobs, @p options) runs, in the order the
 * workers take them: each unit lists its members' job indices. A pure
 * function of the jobs, their resolved seeds and the thread count.
 */
std::vector<std::vector<std::size_t>>
planSweepUnits(const std::vector<SweepJob> &jobs,
               const SweepOptions &options = {});

/**
 * Execute every job on min(options.jobs, jobs.size()) worker threads,
 * grouped into work units as described at the top of this file. A job
 * that throws is captured in its outcome's `error` field; the remaining
 * jobs still run (a shared unit's other members included) and the call
 * always returns (no deadlock). onProgress fires once per job.
 */
SweepRun runSweep(const std::vector<SweepJob> &jobs,
                  const SweepOptions &options = {});

/** The outcome's MissRateResult; bsim_fatal if the job failed. */
const MissRateResult &missResult(const SweepOutcome &outcome);

/** The outcome's TimedResult; bsim_fatal if the job failed. */
const TimedResult &timedResult(const SweepOutcome &outcome);

/**
 * Print the engine's metrics (jobs, wall time, aggregate simulated
 * events/s) as a one-row common/table — the progress/metrics companion
 * the bench harnesses append after their figure tables.
 */
void printSweepSummary(const SweepSummary &summary);
void printSweepSummary(const SweepSummary &summary, std::FILE *out);

} // namespace bsim

#endif // BSIM_SIM_SWEEP_HH
