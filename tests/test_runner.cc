/** Unit tests for the experiment-runner layer. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/runner.hh"

namespace bsim {
namespace {

TEST(Runner, MissRateRunBasics)
{
    const MissRateResult r =
        runMissRate("gcc", StreamSide::Data,
                    parseCacheSpec("dm:16kB"), 50000);
    EXPECT_EQ(r.workload, "gcc");
    EXPECT_EQ(r.stats.accesses, 50000u);
    EXPECT_GT(r.missRate(), 0.0);
    EXPECT_LT(r.missRate(), 1.0);
}

TEST(Runner, BCacheRunsCarryPdStats)
{
    const MissRateResult r =
        runMissRate("equake", StreamSide::Data,
                    parseCacheSpec("bcache:16kB,mf=8,bas=8"), 50000);
    ASSERT_TRUE(r.pd.has_value());
    EXPECT_EQ(r.pd->pdMiss + r.pd->pdHitCacheMiss, r.stats.misses);
}

TEST(Runner, VictimRunsCarryVictimHits)
{
    const MissRateResult r =
        runMissRate("gzip", StreamSide::Data,
                    parseCacheSpec("victim:16kB,16e"), 50000);
    EXPECT_FALSE(r.pd.has_value());
    EXPECT_GT(r.victimHits, 0u);
}

TEST(Runner, SameSeedSameResult)
{
    const auto a = runMissRate("twolf", StreamSide::Data,
                               parseCacheSpec("sa:16kB,4w"),
                               30000, 7);
    const auto b = runMissRate("twolf", StreamSide::Data,
                               parseCacheSpec("sa:16kB,4w"),
                               30000, 7);
    EXPECT_EQ(a.stats.misses, b.stats.misses);
}

TEST(Runner, AssociativityReducesMissesOnConflictBench)
{
    const double dm =
        runMissRate("equake", StreamSide::Data,
                    parseCacheSpec("dm:16kB"), 100000)
            .missRate();
    const double w8 =
        runMissRate("equake", StreamSide::Data,
                    parseCacheSpec("sa:16kB,8w"), 100000)
            .missRate();
    EXPECT_LT(w8, dm);
}

TEST(Runner, InstSideUsesInstructionStream)
{
    const MissRateResult r =
        runMissRate("gcc", StreamSide::Inst,
                    parseCacheSpec("dm:16kB"), 50000);
    EXPECT_EQ(r.stats.fetchAccesses(), 50000u);
    EXPECT_EQ(r.stats.readAccesses(), 0u);
}

TEST(Runner, TimedRunProducesActivity)
{
    const TimedResult r =
        runTimed("gcc", parseCacheSpec("dm:16kB"), 60000);
    EXPECT_EQ(r.cpu.uops, 60000u);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_EQ(r.activity.l1iAccesses, r.l1i.accesses);
    EXPECT_EQ(r.activity.cycles, r.cpu.cycles);
    EXPECT_GT(r.activity.l2Accesses, 0u);
}

TEST(Runner, TimedRunBCacheTracksPdPredictions)
{
    const TimedResult r =
        runTimed("equake", parseCacheSpec("bcache:16kB,mf=8,bas=8"), 60000);
    EXPECT_GT(r.activity.pdPredictedMisses, 0u);
}

TEST(Runner, TimedRunVictimTracksProbes)
{
    const TimedResult r =
        runTimed("gcc", parseCacheSpec("victim:16kB,16e"), 60000);
    EXPECT_GT(r.activity.victimProbes, 0u);
}

TEST(Runner, EnergyRatesSensible)
{
    const EnergyRates dm =
        energyRatesFor(parseCacheSpec("dm:16kB"));
    const EnergyRates w8 =
        energyRatesFor(parseCacheSpec("sa:16kB,8w"));
    const EnergyRates bc =
        energyRatesFor(parseCacheSpec("bcache:16kB,mf=8,bas=8"));
    const EnergyRates vc =
        energyRatesFor(parseCacheSpec("victim:16kB,16e"));

    EXPECT_LT(dm.l1dAccess, w8.l1dAccess);
    EXPECT_GT(bc.l1dAccess, dm.l1dAccess);
    EXPECT_LT(bc.l1dAccess, w8.l1dAccess);
    EXPECT_GT(bc.pdMissRefund, 0.0);
    EXPECT_GT(vc.victimProbe, 0.0);
    // Off-chip = 100x the baseline L1 access (paper methodology).
    EXPECT_NEAR(dm.offchipAccess / dm.l1dAccess, 100.0, 1e-6);
}

TEST(Runner, EnvOverridesRunLengths)
{
    ::setenv("BSIM_ACCESSES", "12345", 1);
    EXPECT_EQ(defaultAccesses(999), 12345u);
    ::setenv("BSIM_ACCESSES", "garbage", 1);
    EXPECT_EQ(defaultAccesses(999), 999u);
    // A sign, an exponent or a trailing suffix is not a count: each
    // falls back instead of running 2^64-1, 1 or 12 accesses.
    for (const char *bad : {"-1", "1e6", "12abc"}) {
        ::setenv("BSIM_ACCESSES", bad, 1);
        EXPECT_EQ(defaultAccesses(999), 999u) << bad;
    }
    ::unsetenv("BSIM_ACCESSES");
    EXPECT_EQ(defaultAccesses(999), 999u);
}

} // namespace
} // namespace bsim
