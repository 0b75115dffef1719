/**
 * @file
 * Design-space ablation for the decisions DESIGN.md calls out: the BAS
 * sweep (Section 4.3.1: past 8 clusters the returns vanish while PD cost
 * keeps growing) and the forced-replacement consequence of PD hits: the
 * share of misses in which the replacement policy is bypassed, by MF.
 *
 * Both tables come from one run of the parallel sweep engine (`--jobs N`
 * / BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "common/strings.hh"
#include "power/cacti_lite.hh"
#include "timing/storage_model.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("ablation_pd_policy",
           "Sections 4.3.1/6.3 ablations (BAS sweep; PD-forced "
           "replacements)");
    const std::uint64_t n = defaultAccesses(400'000);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    // One sweep over every cell of both tables: per benchmark, the dm
    // baseline, the BAS sweep at MF = 8 and the MF sweep at BAS = 8.
    // All of a benchmark's cells share its data stream, so the sweep
    // engine generates it once for them.
    const std::vector<std::uint32_t> bas_points = {1, 2, 4, 8, 16, 32};
    const std::vector<std::uint32_t> mf_points = {2, 4, 8, 16, 32, 64};
    std::vector<CacheConfig> configs = {parseCacheSpec("dm:16kB")};
    for (std::uint32_t bas : bas_points)
        configs.push_back(parseCacheSpec(
            strprintf("bcache:16kB,mf=8,bas=%u", bas)));
    for (std::uint32_t mf : mf_points)
        configs.push_back(parseCacheSpec(
            strprintf("bcache:16kB,mf=%u,bas=8", mf)));
    const auto &benchmarks = spec2kNames();
    std::vector<SweepJob> jobs;
    for (const auto &b : benchmarks)
        for (const CacheConfig &cfg : configs)
            jobs.push_back(SweepJob::missRate(b, StreamSide::Data, cfg, n,
                                              kDefaultSeed));
    const SweepRun run = runSweep(jobs, options);
    // Result of config @p c on benchmark @p b.
    auto cell = [&](std::size_t b, std::size_t c) -> const MissRateResult & {
        return missResult(run.outcomes[b * configs.size() + c]);
    };

    // ---- BAS sweep at MF = 8: miss-rate returns vs hardware cost.
    Table t({"BAS", "PI-bits", "D$ red%", "area-over-base%",
             "energy/access pJ"});
    const StorageCost base_area = conventionalStorage(16 * 1024, 32, 1);
    for (std::size_t k = 0; k < bas_points.size(); ++k) {
        RunningStat rd;
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            rd.add(reductionPct(cell(b, 0).missRate(),
                                cell(b, 1 + k).missRate()));
        const BCacheParams p = configs[1 + k].bcacheParams();
        t.row()
            .cell(bas_points[k])
            .cell(deriveLayout(p).piBits)
            .cell(rd.mean(), 1)
            .cell(areaOverheadPct(base_area, bcacheStorage(p)), 2)
            .cell(CactiLite::bcache(p).total(), 1);
    }
    t.print("BAS sweep at MF=8 (LRU): diminishing returns past BAS=8");

    // ---- Forced replacements: fraction of misses where the PD hit
    // pins the victim, by MF (the replacement policy is bypassed).
    Table f({"MF", "PD-hit-on-miss% (D$)", "policy-chosen victims%"});
    for (std::size_t k = 0; k < mf_points.size(); ++k) {
        RunningStat ph;
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            ph.add(100.0 *
                   cell(b, 1 + bas_points.size() + k).pd->pdHitRateOnMiss());
        f.row()
            .cell(strprintf("MF%u", mf_points[k]))
            .cell(ph.mean(), 1)
            .cell(100.0 - ph.mean(), 1);
    }
    f.print("how often the unique-decoding constraint overrides the "
            "replacement policy");
    return 0;
}
