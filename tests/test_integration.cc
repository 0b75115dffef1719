/** Integration tests: the end-to-end shapes the paper's evaluation
 *  depends on, run at reduced scale (full scale lives in bench/). */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/runner.hh"

namespace bsim {
namespace {

constexpr std::uint64_t kAcc = 150000;

double
dataMissRate(const char *bench, const CacheConfig &cfg)
{
    return runMissRate(bench, StreamSide::Data, cfg, kAcc).missRate();
}

TEST(Integration, EquakeReductionOrdering)
{
    // equake is the paper's deep-conflict poster child: reductions rise
    // with associativity and the B-Cache at MF=16/BAS=8 is close to
    // 8-way.
    const double dm = dataMissRate(
        "equake", parseCacheSpec("dm:16kB"));
    const double w2 =
        dataMissRate("equake", parseCacheSpec("sa:16kB,2w"));
    const double w8 =
        dataMissRate("equake", parseCacheSpec("sa:16kB,8w"));
    const double bc =
        dataMissRate("equake", parseCacheSpec("bcache:16kB,mf=16,bas=8"));

    EXPECT_GT(reductionPct(dm, w8), 60.0);
    EXPECT_GT(reductionPct(dm, w8), reductionPct(dm, w2));
    EXPECT_GT(reductionPct(dm, bc), 0.8 * reductionPct(dm, w8));
}

TEST(Integration, StreamingBenchesResistEveryOrganisation)
{
    // art/swim/lucas/mcf: misses are capacity/compulsory bound, so no
    // organisation gets a large reduction (Section 6.4).
    for (const char *bench : {"art", "swim", "lucas", "mcf"}) {
        const double dm =
            dataMissRate(bench, parseCacheSpec("dm:16kB"));
        const double w8 =
            dataMissRate(bench, parseCacheSpec("sa:16kB,8w"));
        const double bc =
            dataMissRate(bench, parseCacheSpec("bcache:16kB,mf=8,bas=8"));
        EXPECT_LT(reductionPct(dm, w8), 25.0) << bench;
        EXPECT_LT(reductionPct(dm, bc), 25.0) << bench;
    }
}

TEST(Integration, BCacheMfOrderingOnSuiteSample)
{
    // Averaged over a sample of benchmarks, reductions grow with MF.
    const char *sample[] = {"equake", "crafty", "twolf", "gcc",
                            "fma3d"};
    double red2 = 0, red8 = 0;
    for (const char *b : sample) {
        const double dm =
            dataMissRate(b, parseCacheSpec("dm:16kB"));
        red2 += reductionPct(
            dm, dataMissRate(b, parseCacheSpec("bcache:16kB,mf=2,bas=8")));
        red8 += reductionPct(
            dm, dataMissRate(b, parseCacheSpec("bcache:16kB,mf=8,bas=8")));
    }
    EXPECT_GT(red8, red2);
}

TEST(Integration, WupwisePdPathology)
{
    // Figure 3: wupwise's conflicts share PI bits, so the PD hit rate
    // during misses stays high at MF=8 and the B-Cache barely helps; the
    // victim buffer does better (Section 6.6).
    const double dm = dataMissRate(
        "wupwise", parseCacheSpec("dm:16kB"));
    const auto bc8 = runMissRate("wupwise", StreamSide::Data,
                                 parseCacheSpec("bcache:16kB,mf=8,bas=8"),
                                 kAcc);
    const double vb = dataMissRate(
        "wupwise", parseCacheSpec("victim:16kB,16e"));

    ASSERT_TRUE(bc8.pd.has_value());
    EXPECT_GT(bc8.pd->pdHitRateOnMiss(), 0.2);
    EXPECT_GT(reductionPct(dm, vb),
              reductionPct(dm, bc8.missRate()));
}

TEST(Integration, DeepConflictsDefeatVictimButNotBCache)
{
    // equake's conflict working set exceeds 16 victim entries.
    const double dm = dataMissRate(
        "equake", parseCacheSpec("dm:16kB"));
    const double vb = dataMissRate(
        "equake", parseCacheSpec("victim:16kB,16e"));
    const double bc = dataMissRate(
        "equake", parseCacheSpec("bcache:16kB,mf=16,bas=8"));
    EXPECT_GT(reductionPct(dm, bc), reductionPct(dm, vb));
}

TEST(Integration, IcacheBCacheBeatsVictimOnReportedBench)
{
    const double dm =
        runMissRate("gcc", StreamSide::Inst,
                    parseCacheSpec("dm:16kB"), kAcc)
            .missRate();
    const double bc =
        runMissRate("gcc", StreamSide::Inst,
                    parseCacheSpec("bcache:16kB,mf=8,bas=8"), kAcc)
            .missRate();
    const double vb =
        runMissRate("gcc", StreamSide::Inst,
                    parseCacheSpec("victim:16kB,16e"), kAcc)
            .missRate();
    EXPECT_GT(reductionPct(dm, bc), reductionPct(dm, vb));
}

TEST(Integration, IpcImprovesWithBCacheOnConflictBench)
{
    // Figure 8's mechanism at small scale.
    const double ipc_dm =
        runTimed("equake", parseCacheSpec("dm:16kB"), 150000)
            .ipc();
    const double ipc_bc =
        runTimed("equake", parseCacheSpec("bcache:16kB,mf=8,bas=8"), 150000)
            .ipc();
    EXPECT_GT(ipc_bc, ipc_dm);
}

TEST(Integration, EnergyPipelineEndToEnd)
{
    // Run baseline + B-Cache through the timing model and the Figure 10
    // equations; the B-Cache's total should not exceed the baseline's by
    // more than a whisker (the paper reports a 2% *saving* on average).
    const TimedResult base =
        runTimed("equake", parseCacheSpec("dm:16kB"), 150000);
    const TimedResult bc =
        runTimed("equake", parseCacheSpec("bcache:16kB,mf=8,bas=8"), 150000);

    EnergyRates base_rates =
        energyRatesFor(parseCacheSpec("dm:16kB"));
    const double base_dyn =
        SystemEnergyModel(base_rates).dynamicEnergy(base.activity);
    const PicoJoules per_cycle =
        SystemEnergyModel::calibrateStaticPerCycle(base_dyn,
                                                   base.cpu.cycles);
    base_rates.staticPerCycle = per_cycle;
    EnergyRates bc_rates =
        energyRatesFor(parseCacheSpec("bcache:16kB,mf=8,bas=8"));
    bc_rates.staticPerCycle = per_cycle;

    const EnergyTotals et_base =
        SystemEnergyModel(base_rates).evaluate(base.activity);
    const EnergyTotals et_bc =
        SystemEnergyModel(bc_rates).evaluate(bc.activity);

    EXPECT_GT(et_base.total(), 0.0);
    EXPECT_LT(et_bc.total(), et_base.total() * 1.05);
}

TEST(Integration, BalanceImprovesOnConflictBench)
{
    const auto dm = runMissRate("equake", StreamSide::Data,
                                parseCacheSpec("dm:16kB"),
                                kAcc);
    const auto bc = runMissRate("equake", StreamSide::Data,
                                parseCacheSpec("bcache:16kB,mf=8,bas=8"),
                                kAcc);
    // Misses spread across sets: the frequent-miss concentration drops.
    EXPECT_LT(bc.balance.cmPct, dm.balance.cmPct + 1e-9);
}

} // namespace
} // namespace bsim
