/**
 * @file
 * Figure 8 reproduction: IPC improvement over the 16 kB direct-mapped
 * baseline processor (4-issue OOO, 16-entry window, Table 4 memory
 * system) for 2/4/8-way L1s, the B-Cache (MF=8, BAS=8) and a 16-entry
 * victim buffer, across all 26 benchmarks.
 *
 * The grid is one sweep on the parallel sweep engine (`--jobs N` /
 * BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("fig8_ipc", "Figure 8 (IPC improvement over baseline)");
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

    std::vector<std::string> headers{"benchmark", "base-IPC"};
    for (const auto &c : configs)
        headers.push_back(c.label);
    Table t(headers);
    std::vector<RunningStat> avg(configs.size());

    // Column 0 of each row is the direct-mapped baseline.
    std::vector<CacheConfig> grid{parseCacheSpec("dm:16kB")};
    grid.insert(grid.end(), configs.begin(), configs.end());
    const std::vector<TimedRow> rows =
        runTimedRows(spec2kNames(), grid, uops, options);

    for (std::size_t bi = 0; bi < rows.size(); ++bi) {
        const double base = rows[bi][0].ipc();
        t.row().cell(spec2kNames()[bi]).cell(base, 3);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double ipc = rows[bi][i + 1].ipc();
            const double imp = 100.0 * (ipc - base) / base;
            t.cell(imp, 1);
            avg[i].add(imp);
        }
    }
    t.row().cell("Ave").cell("");
    for (const auto &a : avg)
        t.cell(a.mean(), 1);
    t.print("IPC improvement % over 16kB direct-mapped baseline");
    return 0;
}
