/**
 * @file
 * Tables 5 & 6 reproduction: suite-average data-cache miss-rate
 * reduction (Table 5) and PD hit rate during misses (Table 6) over the
 * MF x BAS grid, exposing the fixed-PD-length design tradeoff of
 * Section 6.3: for the same PD width, a larger MF (design B) beats more
 * clusters (design A) until the PD is long enough (6 bits), where the
 * paper settles on MF = 8, BAS = 8.
 *
 * The 26 x 9 (workload, config) cells run on the parallel sweep engine
 * (`--jobs N` / BSIM_JOBS selects the worker count).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/bits.hh"
#include "common/strings.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("table5_6_mf_bas_pd",
           "Tables 5 & 6 (miss-rate reduction and PD hit rate at varied "
           "MF, BAS, PD)");
    const std::uint64_t n = defaultAccesses(400'000);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    const std::vector<std::uint32_t> mfs = {2, 4, 8, 16};
    const std::vector<std::uint32_t> bases = {4, 8};

    // One job per (workload, cell): the baseline plus the MF x BAS grid.
    std::vector<SweepJob> jobs;
    for (const auto &b : spec2kNames()) {
        jobs.push_back(
            SweepJob::missRate(b, StreamSide::Data,
                               parseCacheSpec("dm:16kB"), n,
                               kDefaultSeed));
        for (auto bas : bases)
            for (auto mf : mfs)
                jobs.push_back(SweepJob::missRate(
                    b, StreamSide::Data,
                    parseCacheSpec(strprintf(
                        "bcache:16kB,mf=%u,bas=%u", mf, bas)),
                    n,
                    kDefaultSeed));
    }
    const SweepRun run = runSweep(jobs, options);

    std::map<std::pair<unsigned, unsigned>, RunningStat> red, pdhit;
    std::size_t cursor = 0;
    for (std::size_t bi = 0; bi < spec2kNames().size(); ++bi) {
        const double dm = missResult(run.outcomes[cursor++]).missRate();
        for (auto bas : bases)
            for (auto mf : mfs) {
                const MissRateResult &r =
                    missResult(run.outcomes[cursor++]);
                red[{mf, bas}].add(reductionPct(dm, r.missRate()));
                pdhit[{mf, bas}].add(100.0 * r.pd->pdHitRateOnMiss());
            }
    }

    auto grid = [&](const char *title,
                    std::map<std::pair<unsigned, unsigned>,
                             RunningStat> &m) {
        Table t({"", "MF=2", "MF=4", "MF=8", "MF=16"});
        for (auto bas : bases) {
            t.row().cell(strprintf("BAS=%u", bas));
            for (auto mf : mfs)
                t.cell(m[{mf, bas}].mean(), 1);
        }
        t.row().cell("PD bits");
        for (auto mf : mfs)
            t.cell(strprintf("%u/%u", floorLog2(mf) + 2,
                             floorLog2(mf) + 3));
        t.print(title);
    };
    grid("Table 5: D$ miss-rate reduction % (suite average)", red);
    grid("Table 6: PD hit rate during cache misses % (suite average)",
         pdhit);

    std::printf("\nSection 6.3 readout: same-PD pairs are (MF=2,BAS=8) "
                "vs (MF=4,BAS=4) at PD=4 etc.; with a 6-bit PD "
                "affordable (Table 1), MF=8/BAS=8 is the design point.\n");
    printSweepSummary(run.summary);
    return 0;
}
