/**
 * @file
 * The unified experiment session: one object that owns the access
 * source (synthetic workload stream or trace window), the DUTs built
 * from declarative CacheConfigs (sim/cache_spec.hh), the observer
 * wiring, and the export sinks (human report suppression, bsim-stats-v1
 * JSON, per-set heatmap CSV, interval series).
 *
 * A session may drive several DUTs: each batch is pulled from the
 * source once and fed to every cache in turn, so a grid of caches over
 * one workload stream generates that stream once, and a grid over one
 * trace window reads it once. Every cache sees exactly the records it
 * would see alone, so each result is bit-identical to a single-DUT run.
 *
 * Before this layer, runner.cc, trace_replay.cc and the bsim driver
 * each re-implemented DUT setup, the batched access loops, observer
 * attach/harvest and result assembly. They are now thin adapters over
 * Session; the run loops live here, once, and the bit-identity
 * contracts (batched == per-access, span boundaries don't matter) are
 * pinned against this single implementation.
 */

#ifndef BSIM_SIM_SESSION_HH
#define BSIM_SIM_SESSION_HH

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

/** One DUT's part of a Session::runEach() run (sim/runner.hh). */
using DutRun = DutRunOf<MissRateResult>;

/**
 * One experiment run: a source, its DUTs, an observer per DUT, a result
 * per DUT.
 *
 * A Session is single-shot — construct, then call run() or runEach()
 * exactly once (the source is consumed). Stream sources are
 * caller-owned and borrowed; trace sources are opened and owned by the
 * session.
 */
class Session
{
  public:
    /**
     * Session over a caller-owned access stream (synthetic workload or
     * any other AccessStream). @p accesses is the run length (streams
     * are unbounded).
     */
    Session(AccessStream &stream, const CacheConfig &config,
            std::uint64_t accesses, std::string label,
            const ObserverConfig &observe = {},
            std::size_t batch_len = 0);

    /**
     * Session feeding one caller-owned stream to every cache in
     * @p configs. Each cache gets its own observer when @p observe is
     * enabled. run() needs exactly one DUT.
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

    /**
     * Session replaying one trace window through every cache in
     * @p configs: each span is read and validated once and fed to
     * every cache while it is still in cache. Each cache gets its own
     * observer when options.observe is enabled. run() needs exactly
     * one DUT.
     */
    Session(std::string trace_path, std::vector<CacheConfig> configs,
            const TraceShard &shard = {},
            const TraceReplayOptions &options = {});

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;

    /**
     * Full run: every record of the source window through every DUT,
     * one result per DUT in config order. The source is pulled once per
     * batch and the batch fed to each cache in turn; BSIM_BATCH=0/1
     * feeds the same records one access at a time. A failure of the
     * source itself (a missing or corrupt trace) fails every DUT still
     * running with that error, as it would fail a single-DUT run; a
     * DUT's own failure lands in its DutRun alone.
     */
    std::vector<DutRun> runEach();

    /**
     * runEach() for a single-DUT session: its result, or its error
     * rethrown.
     */
    MissRateResult run();

    /** The workload label results will carry. */
    const std::string &label() const { return label_; }

  private:
    /** One DUT's result once every record has reached it. */
    MissRateResult finish(const CacheConfig &config, BaseCache &cache,
                          const StatsObserver *obs) const;

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

/**
 * Emit the heatmap/interval CSV exports for one observed run. The
 * interval series rides inside the stats document when one is written
 * (--stats-json, or @p json_on_stdout for `bsim --json`); otherwise
 * --interval dumps it as CSV on stdout.
 */
void writeObserverExports(const StatsExport &ex, const ObserverReport &rep,
                          bool json_on_stdout);

} // namespace bsim

#endif // BSIM_SIM_SESSION_HH
