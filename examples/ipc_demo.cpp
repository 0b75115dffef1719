/**
 * @file
 * End-to-end processor demo: run the paper's Table 4 processor (4-issue
 * OOO, 16-entry window, 16 kB L1s, 256 kB L2, 100-cycle memory) over a
 * benchmark with different L1 organisations and report IPC, L1 miss
 * rates and where the cycles went — the Figure 8 experiment for one
 * benchmark, interactively.
 *
 *   ./ipc_demo [benchmark] [uops]     (default: equake, 500k)
 */

#include <cstdio>
#include <optional>
#include <string>

#include "common/strings.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "workload/spec2k.hh"

using namespace bsim;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "equake";
    if (!isSpec2kName(bench)) {
        std::fprintf(stderr, "unknown benchmark '%s'; options:\n",
                     bench.c_str());
        for (const auto &n : spec2kNames())
            std::fprintf(stderr, "  %s\n", n.c_str());
        return 1;
    }
    std::uint64_t uops = defaultUops(500'000);
    if (argc > 2) {
        const std::optional<std::uint64_t> n = parseCount(argv[2]);
        if (!n || *n == 0) {
            std::fprintf(stderr, "error: bad uop count '%s'\n"
                                 "usage: ipc_demo [benchmark] [uops]\n",
                         argv[2]);
            return 2;
        }
        uops = *n;
    }

    const CacheConfig configs[] = {
        parseCacheSpec("dm:16kB"),
        parseCacheSpec("sa:16kB,2w"),
        parseCacheSpec("sa:16kB,8w"),
        parseCacheSpec("dm:16kB+victim:16"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
    };

    Table t({"L1 organisation", "IPC", "IPC-gain%", "I$-miss%",
             "D$-miss%", "L2-miss%", "I$-stall/kuop", "ld-miss-cyc/kuop",
             "mem-accesses"});
    double base_ipc = 0;
    for (const auto &cfg : configs) {
        const TimedResult r = runTimed(bench, cfg, uops);
        if (base_ipc == 0)
            base_ipc = r.ipc();
        t.row()
            .cell(cfg.label)
            .cell(r.ipc(), 3)
            .cell(100.0 * (r.ipc() - base_ipc) / base_ipc, 1)
            .cell(100.0 * r.l1i.missRate(), 3)
            .cell(100.0 * r.l1d.missRate(), 3)
            .cell(100.0 * r.l2.missRate(), 2)
            .cell(1000.0 * double(r.cpu.icacheStallCycles) /
                      double(r.cpu.uops),
                  1)
            .cell(1000.0 * double(r.cpu.loadMissCycles) /
                      double(r.cpu.uops),
                  1)
            .cell(r.activity.offchipAccesses);
    }
    t.print(bench + " on the Table 4 processor (" +
            std::to_string(uops) + " uops; stall columns are injected "
            "penalty cycles per 1000 uops, overlapping)");

    std::printf("\nNote the B-Cache gets its IPC at a direct-mapped "
                "access time; the set-associative\nconfigurations "
                "would additionally stretch the clock (Table 1 / "
                "sec1_motivation).\n");
    return 0;
}
