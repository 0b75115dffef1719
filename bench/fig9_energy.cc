/**
 * @file
 * Figure 9 reproduction: total memory-related energy of 2/4/8-way L1s,
 * the B-Cache (MF=8, BAS=8) and a 16-entry victim buffer, normalized to
 * the 16 kB direct-mapped baseline, using the Figure 10 equations with
 * the paper's methodology (off-chip = 100x baseline L1 access energy,
 * k_static = 0.5 calibrated on the baseline).
 *
 * The timed runs are one sweep on the parallel sweep engine (`--jobs N`
 * / BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

namespace {

EnergyTotals
evaluate(const CacheConfig &cfg, const TimedResult &run,
         PicoJoules static_per_cycle)
{
    EnergyRates rates = energyRatesFor(cfg, static_per_cycle);
    return SystemEnergyModel(rates).evaluate(run.activity);
}

} // namespace

int
main(int argc, char **argv)
{
    banner("fig9_energy",
           "Figure 9 (normalized memory-related energy)");
    const std::uint64_t uops = defaultUops(400'000);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    const std::vector<CacheConfig> configs = {
        parseCacheSpec("sa:16kB,2w"),
        parseCacheSpec("sa:16kB,4w"),
        parseCacheSpec("sa:16kB,8w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        parseCacheSpec("dm:16kB+victim:16"),
    };

    std::vector<std::string> headers{"benchmark"};
    for (const auto &c : configs)
        headers.push_back(c.label);
    Table t(headers);
    std::vector<RunningStat> avg(configs.size());

    // Column 0 of each row is the direct-mapped baseline.
    const CacheConfig base_cfg = parseCacheSpec("dm:16kB");
    std::vector<CacheConfig> grid{base_cfg};
    grid.insert(grid.end(), configs.begin(), configs.end());
    const std::vector<TimedRow> rows =
        runTimedRows(spec2kNames(), grid, uops, options);

    for (std::size_t bi = 0; bi < rows.size(); ++bi) {
        const TimedResult &base_run = rows[bi][0];
        // Calibrate static power on this benchmark's baseline run.
        const double base_dyn =
            SystemEnergyModel(energyRatesFor(base_cfg))
                .dynamicEnergy(base_run.activity);
        const PicoJoules per_cycle =
            SystemEnergyModel::calibrateStaticPerCycle(
                base_dyn, base_run.cpu.cycles);
        const double base_total =
            evaluate(base_cfg, base_run, per_cycle).total();

        t.row().cell(spec2kNames()[bi]);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double norm =
                evaluate(configs[i], rows[bi][i + 1], per_cycle)
                    .total() /
                base_total;
            t.cell(norm, 3);
            avg[i].add(norm);
        }
    }
    t.row().cell("Ave");
    for (const auto &a : avg)
        t.cell(a.mean(), 3);
    t.print("energy normalized to 16kB direct-mapped baseline");
    return 0;
}
