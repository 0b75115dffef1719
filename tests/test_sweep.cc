/** Unit tests for the parallel sweep engine. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "sim/sweep.hh"

namespace bsim {
namespace {

/** A mixed B-Cache / set-assoc / victim job list over several workloads. */
std::vector<SweepJob>
mixedJobs(std::uint64_t accesses)
{
    const std::vector<std::string> benches = {"gcc", "equake", "twolf",
                                              "gzip"};
    const std::vector<CacheConfig> configs = {
        CacheConfig::directMapped(16 * 1024),
        CacheConfig::setAssoc(16 * 1024, 4),
        CacheConfig::bcache(16 * 1024, 8, 8),
        CacheConfig::victim(16 * 1024, 16),
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
    EXPECT_EQ(a.sampled.has_value(), b.sampled.has_value());
    if (a.sampled && b.sampled) {
        EXPECT_EQ(a.sampled->units.size(), b.sampled->units.size());
    }
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

/** What the job's own serial runner returns for the seed it used. */
MissRateResult
serialRun(const SweepJob &job, std::uint64_t seed)
{
    if (job.sample)
        return runMissRateSampled(job.workload, job.side, job.config,
                                  job.length, *job.sample, seed);
    return runMissRate(job.workload, job.side, job.config, job.length,
                       seed);
}

/** Every outcome is either the job's serial result or a failure. */
void
expectMatchesSerial(const std::vector<SweepJob> &jobs,
                    const SweepRun &run)
{
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepOutcome &out = run.outcomes[i];
        EXPECT_EQ(out.index, i);
        if (!out.ok())
            continue;
        ASSERT_TRUE(out.miss.has_value()) << "job " << i;
        expectSameResult(serialRun(jobs[i], out.seed), *out.miss);
    }
}

/**
 * A mixed list for the grouped sweep: streams shared by several caches
 * (Data and Inst sides of one workload), index-derived seeds that share
 * nothing, a sampled job on a shared stream, and two invalid jobs
 * whose key matches a real group.
 */
std::vector<SweepJob>
groupedJobs(std::uint64_t accesses)
{
    const std::vector<CacheConfig> configs = {
        CacheConfig::directMapped(16 * 1024),
        CacheConfig::setAssoc(16 * 1024, 4),
        CacheConfig::bcache(16 * 1024, 8, 8),
        CacheConfig::victim(16 * 1024, 16),
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
    SweepJob sampled = SweepJob::missRate(
        "gcc", StreamSide::Data, configs[2], accesses, 7);
    sampled.sample = SamplePlan{1000, 5000, 500};
    jobs.insert(jobs.begin() + 3, sampled);
    jobs.push_back(SweepJob::missRate("no-such-bench", StreamSide::Data,
                                      configs[0], accesses, 7));
    jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data,
                                      configs[1], 0, 7));
    jobs.push_back(SweepJob::missRate("gcc", StreamSide::Data,
                                      CacheConfig::setAssoc(16 * 1024, 8),
                                      accesses, 7));
    return jobs;
}

/** Turn bsim_fatal into a thrown FatalError for one scope. */
struct FatalThrowsScope
{
    FatalThrowsScope() { setFatalThrows(true); }
    ~FatalThrowsScope() { setFatalThrows(false); }
};

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
        "gcc", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        20000));
    jobs.push_back(SweepJob::missRate(
        "no-such-bench", StreamSide::Data,
        CacheConfig::directMapped(16 * 1024), 20000));
    jobs.push_back(SweepJob::missRate(
        "twolf", StreamSide::Data, CacheConfig::bcache(16 * 1024, 8, 8),
        20000));
    jobs.push_back(SweepJob::missRate(
        "gzip", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
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
        "gcc", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        20000));
    jobs.push_back(SweepJob::missRate(
        "gcc", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        20000, /*seed=*/42));
    SweepOptions opt;
    opt.baseSeed = 1234;
    const SweepRun run = runSweep(jobs, opt);
    EXPECT_EQ(run.outcomes[0].seed, sweepSeed(1234, 0));
    EXPECT_EQ(run.outcomes[1].seed, 42u);
}

TEST(Sweep, ExplicitSeedMatchesSerialRunner)
{
    const CacheConfig cfg = CacheConfig::bcache(16 * 1024, 8, 8);
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
        "gcc", CacheConfig::directMapped(16 * 1024), 30000, 7));
    jobs.push_back(SweepJob::timed(
        "equake", CacheConfig::bcache(16 * 1024, 8, 8), 30000, 7));
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
        runTimed("gcc", CacheConfig::directMapped(16 * 1024), 30000, 7);
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
        EXPECT_NE(run.outcomes[2].seed, run.outcomes[6].seed);
        ASSERT_TRUE(run.outcomes[3].ok()) << run.outcomes[3].error;
        EXPECT_TRUE(run.outcomes[3].miss->sampled.has_value());
    }
}

TEST(SweepGrouped, BadConfigFailsOnlyItsMember)
{
    FatalThrowsScope fatal_throws;
    CacheConfig bad = CacheConfig::setAssoc(16 * 1024, 4);
    bad.ways = 3; // CacheGeometry refuses it at build time
    bad.label = "3way";
    std::vector<SweepJob> jobs;
    for (const CacheConfig &cfg :
         {CacheConfig::directMapped(16 * 1024), bad,
          CacheConfig::bcache(16 * 1024, 8, 8)})
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

TEST(SweepGrouped, PerAccessAndDefaultBatchAgree)
{
    const auto jobs = groupedJobs(15000);
    SweepOptions opt;
    opt.jobs = 2;
    ::setenv("BSIM_BATCH", "0", 1);
    const SweepRun per_access = runSweep(jobs, opt);
    expectMatchesSerial(jobs, per_access);
    ::unsetenv("BSIM_BATCH");
    const SweepRun batched = runSweep(jobs, opt);
    expectMatchesSerial(jobs, batched);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (batched.outcomes[i].ok())
            expectIdentical(per_access.outcomes[i], batched.outcomes[i]);
}

TEST(SweepGrouped, SplitGroupsAreBitIdenticalAtAnyThreadCount)
{
    // One stream, nine caches: fewer groups than workers, so the group
    // is split until every worker has a unit of its own.
    std::vector<SweepJob> jobs;
    for (std::uint32_t mf = 2; mf <= 512; mf *= 2)
        jobs.push_back(SweepJob::missRate(
            "wupwise", StreamSide::Data,
            CacheConfig::bcache(16 * 1024, mf, 8), 20000, kDefaultSeed));
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
         {CacheConfig::directMapped(16 * 1024),
          CacheConfig::setAssoc(16 * 1024, 8),
          CacheConfig::bcache(16 * 1024, 8, 8),
          CacheConfig::victim(16 * 1024, 16)})
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

} // namespace
} // namespace bsim
