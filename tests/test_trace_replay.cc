/**
 * Tests for trace-driven replay (sim/trace_replay) and the verify-layer
 * trace hooks (verify/trace_drive): the golden guarantee that replaying
 * a captured stream from disk is bit-identical to driving the generator
 * directly, batch-length and thread-count invariance of sharded replay,
 * shard geometry, and the oracle/batch-equivalence entry points. Also
 * pins golden counters for the checked-in sample trace in
 * examples/traces/ (BSIM_TRACES_DIR).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "sim/trace_replay.hh"
#include "verify/trace_drive.hh"
#include "workload/generators.hh"
#include "workload/trace.hh"
#include "workload/trace_format.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

class TraceReplayTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("bsim_trace_replay_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

/** A conflict-heavy capture with a write mix, like a real workload. */
std::vector<MemAccess>
capturedStream(std::size_t n)
{
    StridedConflictStream gen(0x40000, 16 * 1024, 12);
    std::vector<MemAccess> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        MemAccess a = gen.next();
        if (i % 4 == 3)
            a.type = AccessType::Write;
        t.push_back(a);
    }
    return t;
}

void
expectStatsEqual(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.readAccesses(), b.readAccesses());
    EXPECT_EQ(a.readMisses(), b.readMisses());
    EXPECT_EQ(a.writeAccesses(), b.writeAccesses());
    EXPECT_EQ(a.writeMisses(), b.writeMisses());
    EXPECT_EQ(a.fetchAccesses(), b.fetchAccesses());
    EXPECT_EQ(a.fetchMisses(), b.fetchMisses());
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.writethroughs, b.writethroughs);
    EXPECT_EQ(a.refills, b.refills);
}

TEST_F(TraceReplayTest, ReplayIsBitIdenticalToDrivingTheGenerator)
{
    const auto captured = capturedStream(5000);
    writeBst2Trace(path("cap.bst"), captured, 256);

    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"),
          parseCacheSpec("bcache:16kB,mf=8,bas=8"),
          parseCacheSpec("victim:16kB,16e")}) {
        VectorStream direct_stream(captured);
        const MissRateResult direct = runMissRateOn(
            direct_stream, cfg, captured.size(), "direct");
        const MissRateResult replay =
            runTraceReplay(path("cap.bst"), cfg);
        expectStatsEqual(replay.stats, direct.stats);
        EXPECT_EQ(replay.victimHits, direct.victimHits);
        ASSERT_EQ(replay.pd.has_value(), direct.pd.has_value());
        if (replay.pd) {
            EXPECT_EQ(replay.pd->pdHitCacheMiss,
                      direct.pd->pdHitCacheMiss);
            EXPECT_EQ(replay.pd->pdMiss, direct.pd->pdMiss);
        }
        EXPECT_EQ(replay.balance.toString(),
                  direct.balance.toString());
    }
}

TEST_F(TraceReplayTest, MaxAccessesClampsTheWindow)
{
    const auto captured = capturedStream(2000);
    writeBst2Trace(path("m.bst"), captured, 128);
    TraceReplayOptions o;
    o.maxAccesses = 137;
    const MissRateResult r = runTraceReplay(
        path("m.bst"), parseCacheSpec("dm:16kB"), {}, o);
    EXPECT_EQ(r.stats.accesses, 137u);
}

TEST_F(TraceReplayTest, ShardsTileTheFileOnChunkBoundaries)
{
    const auto captured = capturedStream(1000);
    writeBst2Trace(path("s.bst"), captured, 64);
    const auto shards = shardTrace(path("s.bst"), 3);
    ASSERT_EQ(shards.size(), 3u);
    std::uint64_t next = 0;
    for (const TraceShard &s : shards) {
        EXPECT_EQ(s.firstRecord, next);
        EXPECT_EQ(s.firstRecord % 64, 0u) << "chunk-aligned start";
        next = s.firstRecord + s.recordCount;
    }
    EXPECT_EQ(next, 1000u);

    // More shards than chunks degrades to one shard per chunk.
    EXPECT_EQ(shardTrace(path("s.bst"), 1000).size(), 16u);
    // Text traces cannot be sharded (no record count header).
    writeTextTrace(path("s.din"), captured);
    EXPECT_FATAL(shardTrace(path("s.din"), 2), "cannot shard");
}

TEST_F(TraceReplayTest, ShardedReplayIsBitIdenticalAtAnyJobs)
{
    const auto captured = capturedStream(4000);
    writeBst2Trace(path("j.bst"), captured, 256);
    const CacheConfig cfg = parseCacheSpec("bcache:16kB,mf=8,bas=8");

    SweepOptions serial, parallel;
    serial.jobs = 1;
    parallel.jobs = 4;
    const TraceSweepResult a =
        runTraceSharded(path("j.bst"), cfg, 4, serial);
    const TraceSweepResult b =
        runTraceSharded(path("j.bst"), cfg, 4, parallel);

    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t i = 0; i < a.shards.size(); ++i)
        expectStatsEqual(a.shards[i].stats, b.shards[i].stats);
    expectStatsEqual(a.total, b.total);
    // Every record of the file was replayed exactly once.
    EXPECT_EQ(a.total.accesses, captured.size());
}

TEST_F(TraceReplayTest, RunnerBatchesCyclingTraceStreamLikeVectorStream)
{
    // A cycling TraceStream read through nextBatch must match the
    // VectorStream over the same records bit for bit, wrap included.
    const auto captured = capturedStream(1500);
    writeBst2Trace(path("r.bst"), captured, 128);
    const CacheConfig cfg = parseCacheSpec("dm:16kB");

    VectorStream vec(captured);
    const MissRateResult want =
        runMissRateOn(vec, cfg, 4000, "vector"); // cycles 2.66 laps
    TraceStream ts(openTraceReader(path("r.bst")));
    const MissRateResult got = runMissRateOn(ts, cfg, 4000, "trace");
    expectStatsEqual(got.stats, want.stats);
}

TEST_F(TraceReplayTest, OracleCheckerRunsCleanOnTraces)
{
    const auto captured = capturedStream(3000);
    writeBst2Trace(path("o.bst"), captured, 256);
    const CacheConfig config = parseCacheSpec("bcache:16kB,mf=8,bas=8");
    OracleOptions opts;
    opts.addrBits = 24;
    const VerifyResult res =
        runOracleOnTrace(path("o.bst"), config, opts);
    EXPECT_TRUE(res.ok) << res.toString();
    EXPECT_EQ(res.steps, captured.size());

    // A shard window drives the same machinery over a slice.
    const VerifyResult slice = runOracleOnTrace(
        path("o.bst"), config, opts, TraceShard{512, 1024});
    EXPECT_TRUE(slice.ok) << slice.toString();
    EXPECT_EQ(slice.steps, 1024u);
}

TEST_F(TraceReplayTest, BatchEquivHoldsOnTraces)
{
    const auto captured = capturedStream(3000);
    writeBst2Trace(path("e.bst"), captured, 256);
    const VerifyResult res = runBatchEquivOnTrace(
        path("e.bst"), parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        /*addr_bits=*/24, /*batch_len=*/64);
    EXPECT_TRUE(res.ok) << res.toString();
    EXPECT_EQ(res.steps, captured.size());
}

/**
 * Regression for the replay-clamp bug class: when maxAccesses is not a
 * multiple of the batch length or the file's chunk length, the final
 * partial request must still land exactly on maxAccesses (an
 * over-delivering reader would otherwise underflow the unsigned `left`
 * countdown into a near-infinite loop). Checked against a
 * directly-driven prefix.
 */
TEST_F(TraceReplayTest, MaxAccessesOffBatchAndChunkBoundaries)
{
    const auto captured = capturedStream(2000);
    writeBst2Trace(path("c.bst"), captured, 128); // chunkLen 128
    const CacheConfig cfg = parseCacheSpec("bcache:16kB,mf=8,bas=8");

    for (const std::uint64_t max : {1u, 127u, 129u, 1001u, 1999u}) {
        // None of these is a multiple of the chunk length (128) or of
        // kDefaultBatchLen.
        VectorStream direct(std::vector<MemAccess>(
            captured.begin(), captured.begin() + max));
        const MissRateResult want =
            runMissRateOn(direct, cfg, max, "prefix");
        TraceReplayOptions o;
        o.maxAccesses = max;
        const MissRateResult r = runTraceReplay(path("c.bst"), cfg, {}, o);
        EXPECT_EQ(r.stats.accesses, max) << "max " << max;
        expectStatsEqual(r.stats, want.stats);
    }
}

/**
 * The sharded-replay golden equality (the shard-merge bugfix's pin):
 * runTraceSharded(path, k) totals — CacheStats, PdStats, victimHits and
 * the merged observer report — equal a serial fold of runTraceReplay
 * over the shardTrace(path, k) windows through the same
 * mergeShardStats/mergeSideCounters helpers, for odd shard counts and
 * independent of the worker count.
 */
TEST_F(TraceReplayTest, ShardedTotalsEqualSerialFoldOverShardWindows)
{
    const auto captured = capturedStream(4100); // not a chunk multiple
    writeBst2Trace(path("f.bst"), captured, 256);
    const CacheConfig cfg = parseCacheSpec("bcache:16kB,mf=8,bas=8");

    TraceReplayOptions replay;
    replay.observe.enabled = true;
    replay.observe.intervalLen = 512;

    for (const unsigned k : {3u, 5u}) {
        // Reference: replay each window serially, fold with the shared
        // merge helpers.
        TraceSweepResult ref;
        for (const TraceShard &w : shardTrace(path("f.bst"), k)) {
            ref.shards.push_back(
                runTraceReplay(path("f.bst"), cfg, w, replay));
            ASSERT_TRUE(ref.shards.back().pd);
            ASSERT_TRUE(ref.shards.back().observer);
            mergeSideCounters(ref, ref.shards.back());
        }
        ref.total = mergeShardStats(ref.shards);

        for (const unsigned jobs : {1u, 4u}) {
            SweepOptions sweep;
            sweep.jobs = jobs;
            const TraceSweepResult got =
                runTraceSharded(path("f.bst"), cfg, k, sweep, replay);
            ASSERT_EQ(got.shards.size(), ref.shards.size());
            expectStatsEqual(got.total, ref.total);
            EXPECT_EQ(got.victimHits, ref.victimHits);
            ASSERT_TRUE(got.pd && ref.pd);
            EXPECT_EQ(got.pd->pdHitCacheMiss, ref.pd->pdHitCacheMiss);
            EXPECT_EQ(got.pd->pdMiss, ref.pd->pdMiss);

            ASSERT_TRUE(got.observer && ref.observer);
            const ObserverReport &g = *got.observer;
            const ObserverReport &r = *ref.observer;
            EXPECT_EQ(g.perSet, r.perSet);
            EXPECT_EQ(g.installs, r.installs);
            EXPECT_EQ(g.writebacks, r.writebacks);
            EXPECT_EQ(g.pdReprograms, r.pdReprograms);
            EXPECT_EQ(g.pdReprogramsPerGroup, r.pdReprogramsPerGroup);
            EXPECT_EQ(g.pdOccupancy, r.pdOccupancy);
            ASSERT_EQ(g.intervals.size(), r.intervals.size());
            for (std::size_t i = 0; i < g.intervals.size(); ++i)
                EXPECT_TRUE(g.intervals[i] == r.intervals[i]) << i;
        }
    }
}

#ifdef BSIM_TRACES_DIR
TEST(SampleTraces, ConflictTraceGoldenCounters)
{
    // The checked-in conflict trace is the paper's Section 1 thrash
    // pattern: 8 lines 16kB apart. A 16kB direct-mapped cache misses on
    // every access; a same-sized MF8/BAS8 B-Cache absorbs the conflicts.
    const std::string p =
        std::string(BSIM_TRACES_DIR) + "/conflict_dm.bst";
    const MissRateResult dm =
        runTraceReplay(p, parseCacheSpec("dm:16kB"));
    EXPECT_EQ(dm.stats.accesses, 600u);
    EXPECT_EQ(dm.stats.misses, 600u);
    const MissRateResult bc =
        runTraceReplay(p, parseCacheSpec("bcache:16kB,mf=8,bas=8"));
    EXPECT_EQ(bc.stats.accesses, 600u);
    EXPECT_LT(bc.stats.misses, 30u); // cold misses + decoder training
}

TEST(SampleTraces, MixedDineroTraceLoads)
{
    const std::string p =
        std::string(BSIM_TRACES_DIR) + "/mixed.din";
    const MissRateResult r =
        runTraceReplay(p, parseCacheSpec("dm:16kB"));
    EXPECT_EQ(r.stats.accesses, 134u);
    EXPECT_GT(r.stats.fetchAccesses(), 0u);
    EXPECT_GT(r.stats.writeAccesses(), 0u);
}
#endif

} // namespace
} // namespace bsim
