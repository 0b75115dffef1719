/**
 * @file
 * Trace-driven experiment runners over the streaming ingestion layer
 * (workload/trace_reader.hh): single-pass replay of a trace window in
 * O(chunk) resident memory, and sharded parallel replay on the sweep
 * engine where each job owns a chunk range of the file.
 *
 * Sharded replay semantics: every shard starts from a cold cache, so the
 * merged counters are those of N independent cold-start replays — an
 * approximation, NOT bit-identical to one serial pass over the whole
 * file. What *is* bit-identical is the sharding itself: per-shard
 * results and their merge depend only on the shard boundaries, never on
 * --jobs/thread count (the sweep engine's determinism contract). docs/TRACES.md discusses when the approximation
 * is acceptable.
 */

#ifndef BSIM_SIM_TRACE_REPLAY_HH
#define BSIM_SIM_TRACE_REPLAY_HH

#include <vector>

#include "sim/session.hh" // TraceReplayOptions + the Session these wrap
#include "sim/sweep.hh"
#include "workload/trace_reader.hh"

namespace bsim {

/**
 * Replay one window of a trace file through a standalone cache built
 * from @p config — the trace-driven analogue of runMissRate(). The
 * window is streamed: only one chunk is resident, and on the
 * uncompressed-BST2 path the batched loop reads records straight out of
 * the mmap with no per-record copy.
 */
MissRateResult runTraceReplay(const std::string &path,
                              const CacheConfig &config,
                              const TraceShard &shard = {},
                              const TraceReplayOptions &options = {});

/**
 * Split @p path into at most @p shards contiguous record ranges, aligned
 * to the file's chunk framing for BST2 (each shard owns whole chunks).
 * Fewer shards come back when the trace is too small. Fatal for text
 * traces, whose record count is unknown without a full scan — convert to
 * .bst first (docs/TRACES.md cookbook).
 */
std::vector<TraceShard> shardTrace(const std::string &path,
                                   unsigned shards);

/** Sum the per-shard counters (cold-start-per-shard semantics above). */
CacheStats mergeShardStats(const std::vector<MissRateResult> &shards);

/** Result of a sharded parallel replay. */
struct TraceSweepResult
{
    /** Per-shard results, in shard (= submission) order. */
    std::vector<MissRateResult> shards;
    /** Summed counters across shards. */
    CacheStats total;
    std::uint64_t victimHits = 0; ///< summed; victim configs only
    std::optional<PdStats> pd;    ///< summed; B-Cache configs only
    /** Merged observer state; present when the replay was observed. */
    std::optional<ObserverReport> observer;
    SweepSummary summary;
};

/**
 * Fold one shard's side counters — victimHits, PdStats and the observer
 * report — into the running totals. The single merge path for
 * everything next to CacheStats: runTraceSharded() folds shard results
 * through it, and the golden test replays shard windows serially and
 * folds them through the same helper to pin the equality.
 */
void mergeSideCounters(TraceSweepResult &total,
                       const MissRateResult &shard);

/**
 * Replay @p path across shardTrace(path, shards) jobs on the sweep
 * engine's worker pool. Per-shard results and the merged totals are
 * bit-identical at any SweepOptions::jobs value. @p replay applies to
 * every shard (maxAccesses caps each shard's window, not the total).
 */
TraceSweepResult runTraceSharded(const std::string &path,
                                 const CacheConfig &config,
                                 unsigned shards,
                                 const SweepOptions &options = {},
                                 const TraceReplayOptions &replay = {});

} // namespace bsim

#endif // BSIM_SIM_TRACE_REPLAY_HH
