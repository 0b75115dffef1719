#include "sim/trace_replay.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace bsim {

MissRateResult
runTraceReplay(const std::string &path, const CacheConfig &config,
               const TraceShard &shard,
               const TraceReplayOptions &options)
{
    return Session(path, {config}, shard, options).run();
}

namespace {

/** shardTrace() body, parameterized on an already-probed header. */
std::vector<TraceShard>
shardWindows(const TraceInfo &info, const std::string &path,
             unsigned shards)
{
    if (info.recordCount == kUnknownRecordCount)
        bsim_fatal("cannot shard text trace '", path,
                   "': the record count is unknown without a full "
                   "scan; convert it to .bst first (docs/TRACES.md)");
    const std::uint64_t records = info.recordCount;
    const std::uint64_t want = std::max(shards, 1u);
    std::vector<TraceShard> out;
    if (records == 0) {
        // One empty shard keeps "replay this trace" well-formed.
        out.push_back(TraceShard{0, 0});
        return out;
    }
    // Boundaries land on BST2 chunk edges so every shard's window
    // starts at an O(1)-seekable offset and no chunk is split.
    const std::uint64_t chunks =
        records / info.chunkLen + (records % info.chunkLen != 0);
    const std::uint64_t groups = std::min<std::uint64_t>(want, chunks);
    for (std::uint64_t g = 0; g < groups; ++g) {
        const std::uint64_t c0 = g * chunks / groups;
        const std::uint64_t c1 = (g + 1) * chunks / groups;
        const std::uint64_t r0 = c0 * info.chunkLen;
        const std::uint64_t r1 =
            std::min<std::uint64_t>(c1 * info.chunkLen, records);
        out.push_back(TraceShard{r0, r1 - r0});
    }
    return out;
}

} // namespace

std::vector<TraceShard>
shardTrace(const std::string &path, unsigned shards)
{
    return shardWindows(probeTrace(path), path, shards);
}

CacheStats
mergeShardStats(const std::vector<MissRateResult> &shards)
{
    // One merge path for the aggregate counters: CacheStats::operator+=
    // (cache/cache_stats.hh) is the single source of truth, so a field
    // added there is summed here with no hand-copied list to update.
    CacheStats total;
    for (const MissRateResult &s : shards)
        total += s.stats;
    return total;
}

void
mergeSideCounters(TraceSweepResult &total, const MissRateResult &shard)
{
    total.victimHits += shard.victimHits;
    if (shard.pd) {
        if (!total.pd)
            total.pd = PdStats{};
        *total.pd += *shard.pd;
    }
    if (shard.observer) {
        if (!total.observer)
            total.observer = ObserverReport{};
        *total.observer += *shard.observer;
    }
}

TraceSweepResult
runTraceSharded(const std::string &path, const CacheConfig &config,
                unsigned shards, const SweepOptions &options,
                const TraceReplayOptions &replay)
{
    const std::vector<TraceShard> windows =
        replay.handle
            ? shardWindows(replay.handle->info(), path, shards)
            : shardTrace(path, shards);
    std::vector<SweepJob> jobs;
    jobs.reserve(windows.size());
    for (const TraceShard &w : windows) {
        jobs.push_back(
            SweepJob::traceReplay(path, w, config, replay.maxAccesses));
        jobs.back().observe = replay.observe;
        jobs.back().traceHandle = replay.handle;
    }
    const SweepRun run = runSweep(jobs, options);
    TraceSweepResult result;
    result.shards.reserve(run.outcomes.size());
    for (const SweepOutcome &out : run.outcomes)
        result.shards.push_back(missResult(out));
    result.total = mergeShardStats(result.shards);
    for (const MissRateResult &s : result.shards)
        mergeSideCounters(result, s);
    result.summary = run.summary;
    return result;
}

} // namespace bsim
