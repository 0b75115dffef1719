/**
 * @file
 * Seed robustness: every table in this repo is generated from one
 * deterministic workload seed. This harness re-derives the headline
 * suite averages (D$ miss-rate reduction of the 8-way cache and the
 * B-Cache at MF=8/BAS=8) under three different seeds and reports the
 * spread — demonstrating the conclusions do not hinge on one RNG draw.
 *
 * The 3 x 26 x 4 (seed, workload, config) cells run on the parallel
 * sweep engine with explicit per-job seeds (`--jobs N` / BSIM_JOBS
 * selects the worker count).
 */

#include "bench/bench_util.hh"
#include "common/strings.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("ablation_seeds",
           "methodology (workload-seed robustness of the averages)");
    const std::uint64_t n = defaultAccesses(200'000);
    const std::uint64_t seeds[] = {0xb5eedULL, 0x1234'5678ULL,
                                   0xdead'beefULL};
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    const std::vector<CacheConfig> configs = {
        parseCacheSpec("dm:16kB"),
        parseCacheSpec("sa:16kB,8w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        parseCacheSpec("dm:16kB+victim:16"),
    };
    std::vector<SweepJob> jobs;
    for (const std::uint64_t seed : seeds)
        for (const auto &b : spec2kNames())
            for (const auto &cfg : configs)
                jobs.push_back(SweepJob::missRate(
                    b, StreamSide::Data, cfg, n, seed));
    const SweepRun run = runSweep(jobs, options);

    Table t({"seed", "dm-miss%", "8way red%", "MF8-BAS8 red%",
             "victim16 red%"});
    RunningStat s_dm, s_8, s_bc, s_v;
    std::size_t cursor = 0;
    for (const std::uint64_t seed : seeds) {
        RunningStat dm, r8, rbc, rv;
        for (std::size_t bi = 0; bi < spec2kNames().size(); ++bi) {
            const double base =
                missResult(run.outcomes[cursor++]).missRate();
            dm.add(100.0 * base);
            r8.add(reductionPct(
                base, missResult(run.outcomes[cursor++]).missRate()));
            rbc.add(reductionPct(
                base, missResult(run.outcomes[cursor++]).missRate()));
            rv.add(reductionPct(
                base, missResult(run.outcomes[cursor++]).missRate()));
        }
        t.row()
            .cell(strprintf("0x%llx",
                            static_cast<unsigned long long>(seed)))
            .cell(dm.mean(), 2)
            .cell(r8.mean(), 1)
            .cell(rbc.mean(), 1)
            .cell(rv.mean(), 1);
        s_dm.add(dm.mean());
        s_8.add(r8.mean());
        s_bc.add(rbc.mean());
        s_v.add(rv.mean());
    }
    t.row()
        .cell("spread(max-min)")
        .cell(s_dm.max() - s_dm.min(), 2)
        .cell(s_8.max() - s_8.min(), 1)
        .cell(s_bc.max() - s_bc.min(), 1)
        .cell(s_v.max() - s_v.min(), 1);
    // Sample (n-1) statistics: the three seeds are draws from the space
    // of possible workload RNG streams, so the population form would
    // understate the across-seed confidence interval.
    t.row()
        .cell("stddev(n-1)")
        .cell(s_dm.sampleStddev(), 2)
        .cell(s_8.sampleStddev(), 1)
        .cell(s_bc.sampleStddev(), 1)
        .cell(s_v.sampleStddev(), 1);
    t.print("suite-average D$ metrics under three workload seeds");
    printSweepSummary(run.summary);
    return 0;
}
