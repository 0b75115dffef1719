/** Unit tests for the parallel sweep engine. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/logging.hh"
#include "expect_fatal.hh"
#include "sim/sweep.hh"
#include "sim/trace_replay.hh"
#include "workload/spec2k.hh"
#include "workload/trace_format.hh"

namespace bsim {
namespace {

/** A mixed B-Cache / set-assoc / victim job list over several workloads. */
std::vector<SweepJob>
mixedJobs(std::uint64_t accesses)
{
    const std::vector<std::string> benches = {"gcc", "equake", "twolf",
                                              "gzip"};
    const std::vector<CacheConfig> configs = {
        parseCacheSpec("dm:16kB"),
        parseCacheSpec("sa:16kB,4w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        parseCacheSpec("victim:16kB,16e"),
    };
    std::vector<SweepJob> jobs;
    for (const auto &b : benches)
        for (const auto &cfg : configs)
            jobs.push_back(SweepJob::missRate(b, StreamSide::Data, cfg,
                                              accesses));
    return jobs;
}

/** Every counter that a bit-identical run must reproduce. */
void
expectSameResult(const MissRateResult &a, const MissRateResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.stats.accesses, b.stats.accesses);
    EXPECT_EQ(a.stats.hits, b.stats.hits);
    EXPECT_EQ(a.stats.misses, b.stats.misses);
    EXPECT_EQ(a.stats.writebacks, b.stats.writebacks);
    EXPECT_EQ(a.stats.refills, b.stats.refills);
    EXPECT_EQ(a.victimHits, b.victimHits);
    EXPECT_EQ(a.pd.has_value(), b.pd.has_value());
    if (a.pd && b.pd) {
        EXPECT_EQ(a.pd->pdHitCacheMiss, b.pd->pdHitCacheMiss);
        EXPECT_EQ(a.pd->pdMiss, b.pd->pdMiss);
    }
    EXPECT_DOUBLE_EQ(a.balance.cmPct, b.balance.cmPct);
    EXPECT_DOUBLE_EQ(a.balance.chPct, b.balance.chPct);
}

void
expectIdentical(const SweepOutcome &a, const SweepOutcome &b)
{
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_TRUE(a.miss.has_value());
    ASSERT_TRUE(b.miss.has_value());
    expectSameResult(*a.miss, *b.miss);
}

/** The serial runner of a Trace job: one runTraceReplay() call. */
MissRateResult
serialReplay(const SweepJob &job)
{
    TraceReplayOptions opts;
    opts.maxAccesses = job.length;
    opts.observe = job.observe;
    opts.handle = job.traceHandle;
    return runTraceReplay(job.tracePath, job.config, job.shard, opts);
}

/** Every counter of a trace result, the observer report included. */
void
expectSameReplay(const MissRateResult &a, const MissRateResult &b)
{
    expectSameResult(a, b);
    EXPECT_EQ(a.stats.writethroughs, b.stats.writethroughs);
    ASSERT_EQ(a.observer.has_value(), b.observer.has_value());
    if (!a.observer)
        return;
    const ObserverReport &x = *a.observer, &y = *b.observer;
    EXPECT_TRUE(x.perSet == y.perSet);
    EXPECT_EQ(x.installs, y.installs);
    EXPECT_EQ(x.writebacks, y.writebacks);
    EXPECT_EQ(x.pdReprograms, y.pdReprograms);
    EXPECT_EQ(x.intervalLen, y.intervalLen);
    EXPECT_TRUE(x.intervals == y.intervals);
    EXPECT_EQ(x.pdReprogramsPerGroup, y.pdReprogramsPerGroup);
    EXPECT_EQ(x.pdOccupancy, y.pdOccupancy);
}

/** Every cache counter a bit-identical timed run must reproduce. */
void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.writethroughs, b.writethroughs);
    EXPECT_EQ(a.refills, b.refills);
}

/** Every counter of a timed run: core, three caches, energy inputs. */
void
expectSameTimed(const TimedResult &a, const TimedResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.cpu.uops, b.cpu.uops);
    EXPECT_EQ(a.cpu.cycles, b.cpu.cycles);
    for (std::size_t c = 0; c < 5; ++c)
        EXPECT_EQ(a.cpu.perClass[c], b.cpu.perClass[c]);
    EXPECT_EQ(a.cpu.icacheStallCycles, b.cpu.icacheStallCycles);
    EXPECT_EQ(a.cpu.loadMissCycles, b.cpu.loadMissCycles);
    EXPECT_EQ(a.cpu.mispredictCycles, b.cpu.mispredictCycles);
    EXPECT_EQ(a.cpu.mispredicts, b.cpu.mispredicts);
    expectSameStats(a.l1i, b.l1i);
    expectSameStats(a.l1d, b.l1d);
    expectSameStats(a.l2, b.l2);
    const ActivityCounts &x = a.activity, &y = b.activity;
    EXPECT_EQ(x.l1iAccesses, y.l1iAccesses);
    EXPECT_EQ(x.l1iMisses, y.l1iMisses);
    EXPECT_EQ(x.l1dAccesses, y.l1dAccesses);
    EXPECT_EQ(x.l1dMisses, y.l1dMisses);
    EXPECT_EQ(x.l2Accesses, y.l2Accesses);
    EXPECT_EQ(x.l2Misses, y.l2Misses);
    EXPECT_EQ(x.offchipAccesses, y.offchipAccesses);
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.victimProbes, y.victimProbes);
    EXPECT_EQ(x.pdPredictedMisses, y.pdPredictedMisses);
}

/**
 * Every outcome is either a failure or exactly what the job's own
 * serial runner returns for the seed it used: runMissRate, runTimed or
 * runTraceReplay.
 */
void
expectMatchesSerial(const std::vector<SweepJob> &jobs,
                    const SweepRun &run)
{
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        const SweepOutcome &out = run.outcomes[i];
        const SweepJob &j = jobs[i];
        EXPECT_EQ(out.index, i);
        if (!out.ok())
            continue;
        if (j.kind == SweepJob::Kind::Timed) {
            ASSERT_TRUE(out.timed.has_value());
            expectSameTimed(runTimed(j.workload, j.config, j.length,
                                     out.seed, j.hierarchy),
                            *out.timed);
            continue;
        }
        ASSERT_TRUE(out.miss.has_value());
        if (j.kind == SweepJob::Kind::Trace)
            expectSameReplay(serialReplay(j), *out.miss);
        else
            expectSameResult(runMissRate(j.workload, j.side, j.config,
                                         j.length, out.seed),
                             *out.miss);
    }
}

/**
 * A mixed list for the grouped sweep: streams shared by several caches
 * (Data and Inst sides of one workload), index-derived seeds that share
 * nothing, and two invalid jobs whose key matches a real group.
 */
std::vector<SweepJob>
groupedJobs(std::uint64_t accesses)
{
    const std::vector<CacheConfig> configs = {
        parseCacheSpec("dm:16kB"),
        parseCacheSpec("sa:16kB,4w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        parseCacheSpec("victim:16kB,16e"),
    };
    std::vector<SweepJob> jobs;
    for (const auto &cfg : configs) {
        jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data, cfg,
                                          accesses, 7));
        jobs.push_back(SweepJob::missRate("gcc", StreamSide::Inst, cfg,
                                          accesses, 7));
        jobs.push_back(SweepJob::missRate("equake", StreamSide::Data,
                                          cfg, accesses));
    }
    jobs.push_back(SweepJob::missRate("no-such-bench", StreamSide::Data,
                                      configs[0], accesses, 7));
    jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data,
                                      configs[1], 0, 7));
    jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data,
                                      parseCacheSpec("sa:16kB,8w"),
                                      accesses, 7));
    return jobs;
}

TEST(Sweep, ResultsInSubmissionOrder)
{
    const auto jobs = mixedJobs(20000);
    SweepOptions opt;
    opt.jobs = 3;
    const SweepRun run = runSweep(jobs, opt);
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(run.outcomes[i].index, i);
        ASSERT_TRUE(run.outcomes[i].ok()) << run.outcomes[i].error;
        EXPECT_EQ(run.outcomes[i].miss->workload, jobs[i].workload);
        EXPECT_EQ(run.outcomes[i].miss->config, jobs[i].config.label);
    }
}

TEST(Sweep, MultiThreadBitIdenticalToSingleThread)
{
    const auto jobs = mixedJobs(30000);
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 4;
    const SweepRun a = runSweep(jobs, serial);
    const SweepRun b = runSweep(jobs, parallel);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        expectIdentical(a.outcomes[i], b.outcomes[i]);
    EXPECT_EQ(a.summary.events, b.summary.events);
    EXPECT_EQ(b.summary.threads, 4u);
}

TEST(Sweep, ThrowingJobReportedWithoutDeadlock)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, parseCacheSpec("dm:16kB"),
        20000));
    jobs.push_back(SweepJob::missRate(
        "no-such-bench", StreamSide::Data,
        parseCacheSpec("dm:16kB"), 20000));
    jobs.push_back(SweepJob::missRate(
        "twolf", StreamSide::Data, parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        20000));
    jobs.push_back(SweepJob::missRate(
        "gzip", StreamSide::Data, parseCacheSpec("dm:16kB"),
        0)); // zero-length: also an error
    SweepOptions opt;
    opt.jobs = 2;
    const SweepRun run = runSweep(jobs, opt);
    ASSERT_EQ(run.outcomes.size(), 4u);
    EXPECT_TRUE(run.outcomes[0].ok());
    EXPECT_FALSE(run.outcomes[1].ok());
    EXPECT_NE(run.outcomes[1].error.find("no-such-bench"),
              std::string::npos);
    EXPECT_TRUE(run.outcomes[2].ok());
    EXPECT_FALSE(run.outcomes[3].ok());
    EXPECT_EQ(run.summary.failed, 2u);
    // Failed jobs contribute no simulated events.
    EXPECT_EQ(run.summary.events, 40000u);
}

TEST(Sweep, SeedDerivationIsPureAndPerJob)
{
    EXPECT_EQ(sweepSeed(7, 0), sweepSeed(7, 0));
    EXPECT_NE(sweepSeed(7, 0), sweepSeed(7, 1));
    EXPECT_NE(sweepSeed(7, 0), sweepSeed(8, 0));

    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, parseCacheSpec("dm:16kB"),
        20000));
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, parseCacheSpec("dm:16kB"),
        20000, /*seed=*/42));
    SweepOptions opt;
    opt.baseSeed = 1234;
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(run.outcomes[0].seed, sweepSeed(1234, 0));
    EXPECT_EQ(run.outcomes[1].seed, 42u);
}

TEST(Sweep, ExplicitSeedMatchesSerialRunner)
{
    const CacheConfig cfg = parseCacheSpec("bcache:16kB,mf=8,bas=8");
    const MissRateResult serial =
        runMissRate("equake", StreamSide::Data, cfg, 30000, 7);
    const SweepRun run = runSweep(
        {SweepJob::missRate("equake", StreamSide::Data, cfg, 30000, 7)});
    const MissRateResult &swept = missResult(run.outcomes[0]);
    EXPECT_EQ(serial.stats.misses, swept.stats.misses);
    EXPECT_EQ(serial.stats.hits, swept.stats.hits);
    EXPECT_EQ(serial.pd->pdMiss, swept.pd->pdMiss);
}

TEST(Sweep, TimedJobsRunTheFullHierarchy)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob::timed(
        "gcc", parseCacheSpec("dm:16kB"), 30000, 7));
    jobs.push_back(SweepJob::timed(
        "equake", parseCacheSpec("bcache:16kB,mf=8,bas=8"), 30000, 7));
    SweepOptions opt;
    opt.jobs = 2;
    const SweepRun run = runSweep(jobs, opt);
    for (const auto &out : run.outcomes) {
        const TimedResult &r = timedResult(out);
        EXPECT_EQ(r.cpu.uops, 30000u);
        EXPECT_GT(r.ipc(), 0.0);
    }
    // Timed jobs reproduce the serial runner too.
    const TimedResult serial =
        runTimed("gcc", parseCacheSpec("dm:16kB"), 30000, 7);
    EXPECT_EQ(serial.cpu.cycles, run.outcomes[0].timed->cpu.cycles);
    EXPECT_EQ(run.summary.events, 60000u);
}

TEST(Sweep, ProgressHookSeesEveryJob)
{
    const auto jobs = mixedJobs(20000);
    std::size_t calls = 0;
    std::size_t last_done = 0;
    bool monotone = true;
    SweepOptions opt;
    opt.jobs = 4;
    opt.onProgress = [&](const SweepProgress &p) {
        ++calls;
        monotone = monotone && p.done == last_done + 1;
        last_done = p.done;
        EXPECT_EQ(p.total, jobs.size());
    };
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(calls, jobs.size());
    EXPECT_TRUE(monotone);
    EXPECT_EQ(last_done, jobs.size());
    EXPECT_EQ(run.summary.jobs, jobs.size());
}

TEST(SweepGrouped, MixedJobsMatchTheirSerialRunners)
{
    const auto jobs = groupedJobs(20000);
    for (const unsigned threads : {1u, 2u, 7u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        opt.baseSeed = 99;
        const SweepRun run = runSweep(jobs, opt);
        expectMatchesSerial(jobs, run);
        EXPECT_EQ(run.summary.threads, threads);
        // Exactly the two invalid jobs fail, each with its own reason.
        ASSERT_EQ(run.summary.failed, 2u);
        const std::size_t n = jobs.size();
        EXPECT_NE(run.outcomes[n - 3].error.find("no-such-bench"),
                  std::string::npos);
        EXPECT_NE(run.outcomes[n - 2].error.find("zero-length"),
                  std::string::npos);
        // Explicit seeds are kept; unset ones still derive from the
        // job index, so those jobs share no stream.
        EXPECT_EQ(run.outcomes[0].seed, 7u);
        EXPECT_EQ(run.outcomes[2].seed, sweepSeed(99, 2));
        EXPECT_NE(run.outcomes[2].seed, run.outcomes[5].seed);
    }
}

TEST(SweepGrouped, BadConfigFailsOnlyItsMember)
{
    CacheConfig bad = parseCacheSpec("sa:16kB,4w");
    bad.ways = 3; // CacheGeometry refuses it at build time
    bad.label = "3way";
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"), bad,
          parseCacheSpec("bcache:16kB,mf=8,bas=8")})
        jobs.push_back(SweepJob::missRate("twolf", StreamSide::Data, cfg,
                                          20000, 7));
    for (const unsigned threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        const SweepRun run = runSweep(jobs, opt);
        ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].error;
        EXPECT_FALSE(run.outcomes[1].ok());
        EXPECT_NE(run.outcomes[1].error.find("associativity"),
                  std::string::npos)
            << run.outcomes[1].error;
        EXPECT_FALSE(run.outcomes[1].miss.has_value());
        ASSERT_TRUE(run.outcomes[2].ok()) << run.outcomes[2].error;
        EXPECT_EQ(run.summary.failed, 1u);
        EXPECT_EQ(run.summary.events, 40000u);
        expectMatchesSerial(jobs, run);
    }
}

TEST(SweepGrouped, SplitGroupsAreBitIdenticalAtAnyThreadCount)
{
    // One stream, nine caches: fewer groups than workers, so the group
    // is split until every worker has a unit of its own.
    std::vector<SweepJob> jobs;
    for (std::uint32_t mf = 2; mf <= 512; mf *= 2)
        jobs.push_back(SweepJob::missRate(
            "wupwise", StreamSide::Data,
            parseCacheSpec("bcache:16kB,mf=" + std::to_string(mf) + ",bas=8"),
            20000, kDefaultSeed));
    std::vector<SweepRun> runs;
    for (const unsigned threads : {1u, 2u, 7u}) {
        SweepOptions opt;
        opt.jobs = threads;
        runs.push_back(runSweep(jobs, opt));
        EXPECT_EQ(runs.back().summary.threads, threads);
    }
    expectMatchesSerial(jobs, runs.front());
    for (const SweepRun &r : runs)
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdentical(runs.front().outcomes[i], r.outcomes[i]);
}

TEST(SweepGrouped, OrderProgressAndSecondsPerJob)
{
    // One shared stream, four caches, one worker: the unit is nearly
    // the whole sweep, so the members' seconds (own time plus an equal
    // share of the generation time) must add up to about its wall time.
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"),
          parseCacheSpec("sa:16kB,8w"),
          parseCacheSpec("bcache:16kB,mf=8,bas=8"),
          parseCacheSpec("victim:16kB,16e")})
        jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data, cfg,
                                          200000, 7));
    std::size_t calls = 0;
    SweepOptions opt;
    opt.jobs = 1;
    opt.onProgress = [&](const SweepProgress &p) {
        ++calls;
        EXPECT_EQ(p.done, calls);
        EXPECT_EQ(p.total, jobs.size());
        EXPECT_EQ(p.events, calls * 200000u);
    };
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(calls, jobs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepOutcome &out = run.outcomes[i];
        EXPECT_EQ(out.index, i);
        ASSERT_TRUE(out.ok()) << out.error;
        EXPECT_EQ(out.miss->config, jobs[i].config.label);
        EXPECT_GT(out.seconds, 0.0);
        sum += out.seconds;
    }
    EXPECT_LE(sum, run.summary.wallSeconds);
    EXPECT_GE(sum, 0.9 * run.summary.wallSeconds);
}

/** The Figure 8 organisations: baseline, 4-way, B-Cache, victim. */
std::vector<CacheConfig>
timedConfigs()
{
    return {parseCacheSpec("dm:16kB"),
            parseCacheSpec("sa:16kB,4w"),
            parseCacheSpec("bcache:16kB,mf=8,bas=8"),
            parseCacheSpec("victim:16kB,16e")};
}

TEST(SweepGroupedTimed, BitIdenticalToSerialAtAnyThreadCount)
{
    // Two uop streams, four cores each. At 4 threads the two units are
    // split until every worker has one, so split units are covered.
    std::vector<SweepJob> jobs;
    for (const char *b : {"gcc", "equake"})
        for (const CacheConfig &cfg : timedConfigs())
            jobs.push_back(SweepJob::timed(b, cfg, 20000, kDefaultSeed));
    std::vector<SweepRun> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        runs.push_back(runSweep(jobs, opt));
        EXPECT_EQ(runs.back().summary.threads, threads);
        EXPECT_EQ(runs.back().summary.failed, 0u);
        EXPECT_EQ(runs.back().summary.events, jobs.size() * 20000u);
        expectMatchesSerial(jobs, runs.back());
    }
    for (const SweepRun &r : runs)
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectSameTimed(*runs.front().outcomes[i].timed,
                            *r.outcomes[i].timed);
}

TEST(SweepGroupedTimed, BadConfigFailsOnlyItsMember)
{
    CacheConfig bad = parseCacheSpec("sa:16kB,4w");
    bad.ways = 3; // CacheGeometry refuses it at build time
    bad.label = "3way";
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"), bad,
          parseCacheSpec("bcache:16kB,mf=8,bas=8")})
        jobs.push_back(SweepJob::timed("twolf", cfg, 20000, 7));
    for (const unsigned threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        const SweepRun run = runSweep(jobs, opt);
        ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].error;
        EXPECT_FALSE(run.outcomes[1].ok());
        EXPECT_NE(run.outcomes[1].error.find("associativity"),
                  std::string::npos)
            << run.outcomes[1].error;
        EXPECT_FALSE(run.outcomes[1].timed.has_value());
        ASSERT_TRUE(run.outcomes[2].ok()) << run.outcomes[2].error;
        EXPECT_EQ(run.summary.failed, 1u);
        EXPECT_EQ(run.summary.events, 40000u);
        expectMatchesSerial(jobs, run);
    }
}

TEST(SweepGroupedTimed, DifferentKeysNeverShareAUnit)
{
    // Pairs of cores that differ from the first pair only in one field
    // of HierarchyParams, the seed or the length — or that are
    // miss-rate jobs over the same workload, seed and length. Had any
    // of them joined another pair's unit, it would have run the other
    // pair's stream or memory system, and its result would differ from
    // its own serial run.
    std::vector<HierarchyParams> hps(4);
    hps[1].l2HitLatency = 12;
    hps[2].memLatency = 200;
    hps[3].l2Ways = 8;
    std::vector<SweepJob> jobs;
    auto pair = [&](std::uint64_t uops, std::uint64_t seed,
                    const HierarchyParams &hp) {
        for (const CacheConfig &cfg :
             {parseCacheSpec("dm:16kB"),
              parseCacheSpec("bcache:16kB,mf=8,bas=8")})
            jobs.push_back(SweepJob::timed("mcf", cfg, uops, seed, hp));
    };
    for (const HierarchyParams &hp : hps)
        pair(20000, 7, hp);
    pair(20000, 8, hps[0]);
    pair(25000, 7, hps[0]);
    jobs.push_back(SweepJob::missRate("mcf", StreamSide::Data,
                                      parseCacheSpec("dm:16kB"),
                                      20000, 7));
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        const SweepRun run = runSweep(jobs, opt);
        EXPECT_EQ(run.summary.failed, 0u);
        expectMatchesSerial(jobs, run);
    }
    // The fields really matter: each variant moved the baseline's cycles.
    const TimedResult base =
        runTimed("mcf", parseCacheSpec("dm:16kB"), 20000, 7);
    for (std::size_t v = 1; v < hps.size(); ++v)
        EXPECT_NE(runTimed("mcf", parseCacheSpec("dm:16kB"),
                           20000, 7, hps[v])
                      .cpu.cycles,
                  base.cpu.cycles)
            << v;
}

TEST(SweepGroupedTimed, SecondsSumToTheUnitsWallTime)
{
    // One uop stream, four cores, one worker: the unit is nearly the
    // whole sweep, so the members' seconds (own time plus an equal
    // share of the generation time) must add up to about its wall time.
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg : timedConfigs())
        jobs.push_back(SweepJob::timed("gcc", cfg, 100000, 7));
    std::size_t calls = 0;
    SweepOptions opt;
    opt.jobs = 1;
    opt.onProgress = [&](const SweepProgress &p) {
        ++calls;
        EXPECT_EQ(p.done, calls);
        EXPECT_EQ(p.events, calls * 100000u);
    };
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(calls, jobs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepOutcome &out = run.outcomes[i];
        ASSERT_TRUE(out.ok()) << out.error;
        EXPECT_EQ(out.timed->config, jobs[i].config.label);
        EXPECT_GT(out.seconds, 0.0);
        sum += out.seconds;
    }
    EXPECT_LE(sum, run.summary.wallSeconds);
    EXPECT_GE(sum, 0.9 * run.summary.wallSeconds);
}

/**
 * Sweeps of trace-window replays. The fixture writes a BST2 trace of a
 * workload's data stream (writes included) in small chunks, so it
 * shards into many windows.
 */
class SweepGroupedTrace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("bsim_sweep_trace_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        trace_ = path("gcc.bst");
        writeTrace(trace_, 16 * 2048);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /** @p records of gcc's data stream, in 2048-record chunks. */
    static void
    writeTrace(const std::string &file, std::size_t records)
    {
        SpecWorkload wl = makeSpecWorkload("gcc", 7);
        std::vector<MemAccess> buf(records);
        wl.data->nextBatch(buf.data(), buf.size());
        Bst2Writer w(file, 2048);
        w.append(buf);
        w.finish();
    }

    std::filesystem::path dir_;
    std::string trace_;
};

/** The Figure 4 organisations the trace tests replay. */
std::vector<CacheConfig>
traceConfigs()
{
    return {parseCacheSpec("dm:16kB"),
            parseCacheSpec("sa:16kB,4w"),
            parseCacheSpec("bcache:16kB,mf=8,bas=8"),
            parseCacheSpec("victim:16kB,16e")};
}

/**
 * Every outcome succeeded, with the seed derived from its index, and is
 * exactly the job's own runTraceReplay() result.
 */
void
expectMatchesSerialReplay(const std::vector<SweepJob> &jobs,
                          const SweepRun &run, std::uint64_t base_seed)
{
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
        EXPECT_TRUE(run.outcomes[i].ok()) << i << ": "
                                          << run.outcomes[i].error;
        EXPECT_EQ(run.outcomes[i].seed, sweepSeed(base_seed, i)) << i;
    }
    expectMatchesSerial(jobs, run);
}

TEST_F(SweepGroupedTrace, MixedSweepMatchesRunOnePerJob)
{
    // Config-major like a harness grid: several shards x four caches x
    // four (observer, handle) variants, so each shard window is shared
    // by four caches in each of four units.
    const TraceHandlePtr handle = openTraceHandle(trace_);
    struct Variant
    {
        ObserverConfig observe;
        bool shared;
    };
    const Variant variants[] = {{{}, false},
                                {{true, 0}, true},
                                {{true, 512}, true},
                                {{true, 0}, false}};
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg : traceConfigs())
        for (const TraceShard &w : shardTrace(trace_, 3))
            for (const Variant &v : variants) {
                jobs.push_back(SweepJob::traceReplay(trace_, w, cfg));
                jobs.back().observe = v.observe;
                if (v.shared)
                    jobs.back().traceHandle = handle;
            }
    for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        opt.baseSeed = 5;
        const SweepRun run = runSweep(jobs, opt);
        EXPECT_EQ(run.summary.threads, threads);
        EXPECT_EQ(run.summary.failed, 0u);
        // Every record, once per (cache, variant).
        EXPECT_EQ(run.summary.events, 4u * 4 * 16 * 2048);
        expectMatchesSerialReplay(jobs, run, opt.baseSeed);
    }
}

TEST_F(SweepGroupedTrace, DifferentKeysNeverShareAUnit)
{
    // Pairs of caches that differ from the first pair in exactly one
    // key field. Each pair must be a unit of its own: sharing would run
    // one pair on the other's window, length or observer (visible in
    // its result), or on the other's handle or file (invisible in the
    // counters, so the plan itself is checked too).
    std::filesystem::copy_file(trace_, path("copy.bst"));
    const TraceHandlePtr handle = openTraceHandle(trace_);
    const TraceHandlePtr other_handle = openTraceHandle(trace_);
    const std::vector<TraceShard> windows = shardTrace(trace_, 2);
    std::vector<SweepJob> jobs;
    auto pair = [&](const std::string &file, const TraceShard &w,
                    std::uint64_t length, ObserverConfig observe,
                    const TraceHandlePtr &h) {
        for (const CacheConfig &cfg :
             {parseCacheSpec("dm:16kB"),
              parseCacheSpec("bcache:16kB,mf=8,bas=8")}) {
            jobs.push_back(SweepJob::traceReplay(file, w, cfg, length));
            jobs.back().observe = observe;
            jobs.back().traceHandle = h;
        }
    };
    const ObserverConfig on{true, 0};
    pair(trace_, windows[0], 0, on, nullptr);
    pair(trace_, windows[1], 0, on, nullptr);          // window
    pair(trace_, windows[0], 5000, on, nullptr);       // length
    pair(trace_, windows[0], 0, {}, nullptr);          // observer off
    pair(trace_, windows[0], 0, {true, 256}, nullptr); // interval
    pair(trace_, windows[0], 0, on, handle);           // a handle
    pair(trace_, windows[0], 0, on, other_handle);     // another one
    pair(path("copy.bst"), windows[0], 0, on, nullptr); // path
    // A miss-rate pair over a workload name that looks like the trace's.
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"),
          parseCacheSpec("bcache:16kB,mf=8,bas=8")})
        jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data, cfg,
                                          5000, 7));

    SweepOptions one;
    one.jobs = 1;
    const auto units = planSweepUnits(jobs, one);
    ASSERT_EQ(units.size(), jobs.size() / 2);
    for (std::size_t u = 0; u < units.size(); ++u)
        EXPECT_EQ(units[u], (std::vector<std::size_t>{2 * u, 2 * u + 1}))
            << u;

    std::vector<SweepJob> traces(jobs.begin(), jobs.end() - 2);
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        expectMatchesSerialReplay(traces, runSweep(traces, opt), opt.baseSeed);
    }
}

TEST_F(SweepGroupedTrace, UnitsSplitToAboutFourPerWorker)
{
    // The shape of an observed trace grid: 8 caches x 13 shards. On one
    // thread each shard is one unit of all 8 caches; on 4 threads they
    // split to ceil(104 / 16) = 7 members or fewer, i.e. 26 units of 4.
    std::vector<SweepJob> jobs;
    const std::vector<TraceShard> windows = shardTrace(trace_, 13);
    ASSERT_EQ(windows.size(), 13u);
    for (std::uint32_t mf = 2; mf <= 256; mf *= 2)
        for (const TraceShard &w : windows)
            jobs.push_back(SweepJob::traceReplay(
                trace_, w,
                parseCacheSpec("bcache:16kB,mf=" + std::to_string(mf) +
                               ",bas=8")));
    SweepOptions opt;
    opt.jobs = 1;
    auto units = planSweepUnits(jobs, opt);
    ASSERT_EQ(units.size(), 13u);
    for (const auto &u : units)
        EXPECT_EQ(u.size(), 8u);
    opt.jobs = 4;
    units = planSweepUnits(jobs, opt);
    ASSERT_EQ(units.size(), 26u);
    std::vector<std::size_t> seen;
    for (const auto &u : units) {
        EXPECT_EQ(u.size(), 4u);
        for (const std::size_t i : u) {
            EXPECT_TRUE(jobs[i].shard == jobs[u.front()].shard);
            seen.push_back(i);
        }
    }
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(seen[i], i);
}

TEST_F(SweepGroupedTrace, LoneJobsOfEveryKindMatchTheirSerialRunners)
{
    // One job of each source kind, sharing nothing: each is a unit of
    // one member, which runs on its own source like a larger unit.
    const std::vector<SweepJob> jobs = {
        SweepJob::missRate("gcc", StreamSide::Data,
                           parseCacheSpec("bcache:16kB,mf=8,bas=8"), 20000,
                           7),
        SweepJob::timed("equake", parseCacheSpec("victim:16kB,16e"), 20000,
                        7),
        SweepJob::traceReplay(trace_, TraceShard{},
                              parseCacheSpec("sa:16kB,4w"), 0, 0,
                              {true, 0}),
    };
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        EXPECT_EQ(planSweepUnits(jobs, opt),
                  (std::vector<std::vector<std::size_t>>{{0}, {1}, {2}}));
        const SweepRun run = runSweep(jobs, opt);
        EXPECT_EQ(run.summary.failed, 0u);
        EXPECT_EQ(run.summary.events, 20000u + 20000u + 16 * 2048);
        expectMatchesSerial(jobs, run);
        for (const SweepOutcome &out : run.outcomes)
            EXPECT_GT(out.seconds, 0.0);
    }
}

TEST_F(SweepGroupedTrace, BadConfigFailsAlone)
{
    CacheConfig bad = parseCacheSpec("sa:16kB,4w");
    bad.ways = 3; // CacheGeometry refuses it at build time
    bad.label = "3way";
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"), bad,
          parseCacheSpec("victim:16kB,16e")})
        jobs.push_back(SweepJob::traceReplay(trace_, TraceShard{}, cfg, 0,
                                             0, {true, 0}));
    for (const unsigned threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SweepOptions opt;
        opt.jobs = threads;
        const SweepRun run = runSweep(jobs, opt);
        EXPECT_EQ(run.summary.failed, 1u);
        EXPECT_EQ(run.summary.events, 2u * 16 * 2048);
        EXPECT_FALSE(run.outcomes[1].ok());
        EXPECT_NE(run.outcomes[1].error.find("associativity"),
                  std::string::npos)
            << run.outcomes[1].error;
        EXPECT_FALSE(run.outcomes[1].miss.has_value());
        for (const std::size_t i : {0u, 2u}) {
            ASSERT_TRUE(run.outcomes[i].ok()) << run.outcomes[i].error;
            expectSameReplay(serialReplay(jobs[i]), *run.outcomes[i].miss);
        }
    }
}

TEST_F(SweepGroupedTrace, MissingTraceFailsEveryMemberLikeRunOne)
{
    // A unit over a missing file: every member fails with the message
    // its own run would give — the open error for the caches, and its
    // own build error for the config that cannot be built.
    CacheConfig bad = parseCacheSpec("sa:16kB,4w");
    bad.ways = 3;
    bad.label = "3way";
    const std::string missing = path("missing.bst");
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"), bad,
          parseCacheSpec("bcache:16kB,mf=8,bas=8"),
          parseCacheSpec("victim:16kB,16e")})
        jobs.push_back(SweepJob::traceReplay(missing, TraceShard{}, cfg));
    SweepOptions opt;
    opt.jobs = 1;
    ASSERT_EQ(planSweepUnits(jobs, opt).size(), 1u);
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(run.summary.failed, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        const SweepRun alone = runSweep({jobs[i]}, opt);
        ASSERT_FALSE(alone.outcomes[0].ok());
        EXPECT_EQ(run.outcomes[i].error, alone.outcomes[0].error);
        EXPECT_FALSE(run.outcomes[i].miss.has_value());
    }
    EXPECT_NE(run.outcomes[0].error.find(missing), std::string::npos)
        << run.outcomes[0].error;
    EXPECT_NE(run.outcomes[1].error.find("associativity"),
              std::string::npos)
        << run.outcomes[1].error;
}

TEST_F(SweepGroupedTrace, SecondsSumToTheUnitsWallTime)
{
    // One window, four caches, one worker: the unit is nearly the whole
    // sweep, so the members' seconds (own time plus an equal share of
    // the trace reading) must add up to about its wall time.
    const std::string big = path("big.bst");
    writeTrace(big, 400000);
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg : traceConfigs())
        jobs.push_back(
            SweepJob::traceReplay(big, TraceShard{}, cfg, 0, 0, {true, 0}));
    std::size_t calls = 0;
    SweepOptions opt;
    opt.jobs = 1;
    opt.onProgress = [&](const SweepProgress &p) {
        ++calls;
        EXPECT_EQ(p.done, calls);
        EXPECT_EQ(p.events, calls * 400000u);
    };
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(calls, jobs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepOutcome &out = run.outcomes[i];
        ASSERT_TRUE(out.ok()) << out.error;
        EXPECT_EQ(out.miss->config, jobs[i].config.label);
        EXPECT_GT(out.seconds, 0.0);
        sum += out.seconds;
    }
    EXPECT_LE(sum, run.summary.wallSeconds);
    EXPECT_GE(sum, 0.9 * run.summary.wallSeconds);
}

TEST(Sweep, DefaultJobsHonoursEnv)
{
    ::setenv("BSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("BSIM_JOBS", "garbage", 1);
    EXPECT_GE(defaultJobs(), 1u);
    ::unsetenv("BSIM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Sweep, ConsumeJobsFlagStripsArgv)
{
    char prog[] = "prog";
    char a1[] = "--jobs";
    char a2[] = "6";
    char a3[] = "twolf";
    char *argv[] = {prog, a1, a2, a3, nullptr};
    int argc = 4;
    EXPECT_EQ(consumeJobsFlag(argc, argv), 6u);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "twolf");

    char b1[] = "--jobs=2";
    char *argv2[] = {prog, b1, nullptr};
    int argc2 = 2;
    EXPECT_EQ(consumeJobsFlag(argc2, argv2), 2u);
    EXPECT_EQ(argc2, 1);

    char *argv3[] = {prog, a3, nullptr};
    int argc3 = 2;
    EXPECT_EQ(consumeJobsFlag(argc3, argv3), 0u);
    EXPECT_EQ(argc3, 2);
}

TEST(Sweep, ConsumeJobsFlagRejectsEveryOtherFlag)
{
    char prog[] = "prog";
    char a1[] = "--sample";
    char a2[] = "2000:20000";
    char *argv[] = {prog, a1, a2, nullptr};
    int argc = 3;
    EXPECT_FATAL(consumeJobsFlag(argc, argv), "unknown flag '--sample'");

    char b1[] = "twolf";
    char b2[] = "--jobs=3";
    char b3[] = "--icache";
    char *argv2[] = {prog, b1, b2, b3, nullptr};
    int argc2 = 4;
    EXPECT_FATAL(consumeJobsFlag(argc2, argv2), "unknown flag '--icache'");
}

} // namespace
} // namespace bsim
