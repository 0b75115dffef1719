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
 * There is one feed path per source: a trace window is read through its
 * reader's nextSpan(), a generator through nextBatch() into a request
 * buffer, and either way records enter each cache through accessBatch()
 * in chunks of kDefaultBatchLen. How a run is sliced into batches never
 * shows in a result: verify/batch_equiv twin-drives access() against
 * accessBatch() at odd batch lengths to pin that. runner.cc,
 * trace_replay.cc and the bsim driver are thin adapters over Session.
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
     * Session feeding one caller-owned access stream (synthetic
     * workload or any other AccessStream) to every cache in
     * @p configs. @p accesses is the run length (streams are
     * unbounded). Each cache gets its own observer when @p observe is
     * enabled. run() needs exactly one DUT.
     */
    Session(AccessStream &stream, std::vector<CacheConfig> configs,
            std::uint64_t accesses, std::string label,
            const ObserverConfig &observe = {});

    /**
     * Session replaying one window of a trace file
     * (options.maxAccesses 0 = the whole window) through every cache
     * in @p configs: each span is read and validated once and fed to
     * every cache while it is still in cache. The trace is opened
     * lazily at run time, so constructing a Session for a missing file
     * only fails when run. Each cache gets its own observer when
     * options.observe is enabled. run() needs exactly one DUT.
     */
    Session(std::string trace_path, std::vector<CacheConfig> configs,
            const TraceShard &shard = {},
            const TraceReplayOptions &options = {});

    /**
     * Full run: every record of the source window through every DUT,
     * one result per DUT in config order. The source is pulled once per
     * batch and the batch fed to each cache's accessBatch() in turn. A
     * failure of the source itself (a missing or corrupt trace) fails
     * every DUT still running with that error, as it would fail a
     * single-DUT run; a DUT's own failure lands in its DutRun alone.
     */
    std::vector<DutRun> runEach();

    /**
     * runEach() for a single-DUT session: its result, or its error
     * rethrown.
     */
    MissRateResult run();

  private:
    /** One DUT's result once every record has reached it. */
    MissRateResult finish(const CacheConfig &config, BaseCache &cache,
                          const StatsObserver *obs) const;

    std::vector<CacheConfig> configs_; ///< one per DUT
    std::string label_;
    ObserverConfig observe_;
    std::uint64_t maxAccesses_ = 0;

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
