/**
 * @file
 * Memory-system sensitivity: the Figure 8 IPC conclusions under varied
 * L2 hit latency and main-memory latency. The B-Cache's advantage over
 * the baseline grows with the miss penalty (each removed conflict miss
 * is worth more) — evidence the paper's Table 4 numbers are not a
 * sweet-spot artefact.
 *
 * Each latency point is one sweep on the parallel sweep engine
 * (`--jobs N` / BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "common/strings.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("ablation_l2",
           "design study (IPC gains vs L2/memory latency)");
    const std::uint64_t uops = defaultUops(200'000);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    // A representative slice: conflict-heavy, streaming, pointer-chase.
    const std::vector<std::string> sample = {"equake", "crafty", "twolf",
                                             "swim",   "mcf",    "gcc"};
    // The direct-mapped baseline first, then the three contenders.
    const std::vector<CacheConfig> configs = {
        parseCacheSpec("dm:16kB"),
        parseCacheSpec("sa:16kB,8w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        parseCacheSpec("dm:16kB+victim:16"),
    };

    Table t({"L2-hit", "mem-lat", "8way IPC-gain%", "B-Cache IPC-gain%",
             "victim16 IPC-gain%"});
    struct Point
    {
        Cycles l2;
        Cycles mem;
    };
    for (const Point pt : {Point{6, 100}, Point{12, 100}, Point{6, 200},
                           Point{12, 300}}) {
        HierarchyParams hp;
        hp.l2HitLatency = pt.l2;
        hp.memLatency = pt.mem;
        RunningStat g8, gbc, gv;
        for (const TimedRow &row :
             runTimedRows(sample, configs, uops, options, hp)) {
            const double base = row[0].ipc();
            g8.add(100.0 * (row[1].ipc() - base) / base);
            gbc.add(100.0 * (row[2].ipc() - base) / base);
            gv.add(100.0 * (row[3].ipc() - base) / base);
        }
        t.row()
            .cell(strprintf("%llu",
                            static_cast<unsigned long long>(pt.l2)))
            .cell(strprintf("%llu",
                            static_cast<unsigned long long>(pt.mem)))
            .cell(g8.mean(), 1)
            .cell(gbc.mean(), 1)
            .cell(gv.mean(), 1);
    }
    t.print("sample-average IPC improvement over the direct-mapped "
            "baseline (6 benchmarks)");
    return 0;
}
