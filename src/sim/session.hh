/**
 * @file
 * The unified experiment session: one object that owns the access
 * source (synthetic workload stream, trace window, or sampled trace),
 * the DUTs built from declarative CacheConfigs (sim/cache_spec.hh),
 * the observer wiring, and the export sinks (human report suppression,
 * bsim-stats-v1 JSON, per-set heatmap CSV, interval series).
 *
 * A stream session may drive several DUTs: each batch is pulled from
 * the source once and fed to every cache in turn, so a grid of caches
 * over one workload stream generates that stream once. Every cache
 * sees exactly the records it would see alone, so each result is
 * bit-identical to a single-DUT run.
 *
 * Before this layer, runner.cc, trace_replay.cc and the bsim driver
 * each re-implemented DUT setup, the batched access loops, observer
 * attach/harvest and result assembly. They are now thin adapters over
 * Session; the run loops live here, once, and the bit-identity
 * contracts (batched == per-access, span boundaries don't matter,
 * sampled unit sums are pure functions of (source, config, plan, k))
 * are pinned against this single implementation.
 */

#ifndef BSIM_SIM_SESSION_HH
#define BSIM_SIM_SESSION_HH

#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "workload/trace_reader.hh"

namespace bsim {

/** Knobs for one trace-replay session (moved from trace_replay.hh). */
struct TraceReplayOptions
{
    /** Stop after this many accesses (0 = the whole window). */
    std::uint64_t maxAccesses = 0;
    /** Span clamp fed to accessBatch; 0 = defaultBatchLen(). */
    std::size_t batchLen = 0;
    /** Ride a StatsObserver along (observe/observer.hh). */
    ObserverConfig observe;
    /**
     * Shared open-trace handle (workload/trace_reader.hh). When set,
     * readers are opened from it, so concurrent runs reuse one mmap.
     * The trace path must match the handle's; results are bit-identical
     * to a per-run open (same bytes, same windows).
     */
    TraceHandlePtr handle;
};

/**
 * One DUT's part of a Session::runEach() run. A DUT whose config fails
 * to build, or whose run throws, carries the exception instead of a
 * result; the session's other DUTs are unaffected.
 */
struct DutRun
{
    std::optional<MissRateResult> result;
    std::exception_ptr error;
    /**
     * This DUT's own time: cache build, accesses and result assembly.
     * Pulling records from the source is shared by every DUT and is
     * not included.
     */
    double seconds = 0.0;
};

/**
 * One experiment run: a source, its DUTs, an observer per DUT, a result
 * per DUT.
 *
 * A Session is single-shot — construct, then call run(), runEach() or
 * runSampled() exactly once (the source is consumed). Stream sources
 * are caller-owned and borrowed; trace sources are opened and owned by
 * the session.
 */
class Session
{
  public:
    /**
     * Session over a caller-owned access stream (synthetic workload or
     * any other AccessStream). @p accesses is the run length — streams
     * are unbounded, so it is also the sampled population.
     */
    Session(AccessStream &stream, const CacheConfig &config,
            std::uint64_t accesses, std::string label,
            const ObserverConfig &observe = {},
            std::size_t batch_len = 0);

    /**
     * Session feeding one caller-owned stream to every cache in
     * @p configs. Each cache gets its own observer when @p observe is
     * enabled. Only run() and runEach() accept several DUTs.
     */
    Session(AccessStream &stream, std::vector<CacheConfig> configs,
            std::uint64_t accesses, std::string label,
            const ObserverConfig &observe = {},
            std::size_t batch_len = 0);

    /**
     * Session over one window of a trace file (options.maxAccesses 0 =
     * the whole window). The trace is opened lazily at run time, so
     * constructing a Session for a missing file only fails when run.
     */
    Session(std::string trace_path, const CacheConfig &config,
            const TraceShard &shard = {},
            const TraceReplayOptions &options = {});

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;

    /**
     * Full run: every record of the source window through every DUT,
     * one result per DUT in config order. The source is pulled once per
     * batch and the batch fed to each cache in turn; BSIM_BATCH=0/1
     * feeds the same records one access at a time. Errors of the
     * source itself (a missing trace) propagate; a DUT's own failure
     * lands in its DutRun.
     */
    std::vector<DutRun> runEach();

    /**
     * runEach() for a single-DUT session: its result, or its error
     * rethrown.
     */
    MissRateResult run();

    /**
     * Sampled run (sim/sampling.hh): simulate only @p plan's units,
     * each from a cold cache with its warmup fenced off by a stats
     * snapshot. Seekable sources (traces) skip between units in O(1)
     * and accept a unit range [first_unit, first_unit + unit_count)
     * for sharding (unit_count 0 = through the last unit); stream
     * sources are consumed in one forward pass, discarding records
     * between units, and must run the full unit list. Single-DUT
     * sessions only.
     */
    MissRateResult runSampled(const SamplePlan &plan,
                              std::uint64_t first_unit = 0,
                              std::uint64_t unit_count = 0);

    /** The workload label results will carry. */
    const std::string &label() const { return label_; }

  private:
    /** One DUT's result once every record has reached it. */
    MissRateResult finish(const CacheConfig &config, BaseCache &cache,
                          const StatsObserver *obs) const;
    std::uint64_t sampledPopulation() const;

    std::vector<CacheConfig> configs_; ///< one per DUT
    std::string label_;
    ObserverConfig observe_;
    std::uint64_t maxAccesses_ = 0;
    std::size_t batchLen_ = 0;

    AccessStream *stream_ = nullptr; ///< borrowed; null for traces
    std::string tracePath_;          ///< non-empty for trace sources
    TraceShard shard_;
    TraceHandlePtr handle_;          ///< optional shared open trace
};

/**
 * The observer-driven export set shared by every driver path: the
 * bsim-stats-v1 document, the per-set heatmap CSV, and — when no JSON
 * document captures it — the interval series CSV on stdout. (Moved
 * from the bsim driver so any harness can reuse the sink wiring.)
 */
struct StatsExport
{
    std::string statsJsonPath; ///< empty = off; "-" = stdout
    std::string heatmapPath;   ///< empty = off; "-" = stdout
    std::uint64_t interval = 0;

    bool
    wantsObserver() const
    {
        return !statsJsonPath.empty() || !heatmapPath.empty() ||
               interval > 0;
    }

    ObserverConfig
    observerConfig() const
    {
        ObserverConfig c;
        c.enabled = wantsObserver();
        c.intervalLen = interval;
        return c;
    }

    /**
     * A "-" export owns stdout: the human-readable report is
     * suppressed so the emitted document stays machine-parseable.
     */
    bool
    claimsStdout() const
    {
        return statsJsonPath == "-" || heatmapPath == "-";
    }
};

/** Write @p text to @p path, with "-" meaning stdout. */
void writeTextOutput(const std::string &path, const std::string &text);

/** Emit the heatmap/interval CSV exports for one observed run. */
void writeObserverExports(const StatsExport &ex,
                          const ObserverReport &rep);

} // namespace bsim

#endif // BSIM_SIM_SESSION_HH
