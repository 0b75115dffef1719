/**
 * @file
 * Trace capture, replay and balance analysis.
 *
 * Without arguments: captures a trace from the `gcc` synthetic
 * workload, writes it in both on-disk formats (BST2 binary .bst and
 * Dinero .din), reloads it and replays it through the direct-mapped baseline
 * and the B-Cache, printing miss rates and the Table 7 balance
 * classification.
 *
 * With an argument: replays a user-supplied trace file (.bst BST2 or
 * Dinero text "label hexaddr" with 0=read, 1=write, 2=fetch) instead —
 * the path for driving the models with converted real-machine traces.
 *
 *   ./trace_analysis [trace-file]
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "bcache/balance.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"
#include "workload/spec2k.hh"
#include "workload/trace.hh"

using namespace bsim;

int
main(int argc, char **argv)
{
    std::vector<MemAccess> trace;
    std::string source;

    if (argc > 1) {
        source = argv[1];
        trace = loadTrace(source);
        std::printf("loaded %zu accesses from '%s'\n", trace.size(),
                    source.c_str());
    } else {
        // Capture from the synthetic gcc data stream and round-trip
        // through both formats.
        const std::uint64_t n = defaultAccesses(400'000);
        SpecWorkload w = makeSpecWorkload("gcc");
        RecordingStream rec(std::move(w.data));
        for (std::uint64_t i = 0; i < n; ++i)
            rec.next();

        const auto dir = std::filesystem::temp_directory_path();
        const std::string bst = (dir / "bsim_gcc.bst").string();
        const std::string din = (dir / "bsim_gcc.din").string();
        writeBst2Trace(bst, rec.recorded());
        writeTextTrace(din, rec.recorded());
        std::printf("captured %zu accesses from synthetic 'gcc'\n"
                    "wrote binary trace: %s (%ju bytes)\n"
                    "wrote dinero trace: %s (%ju bytes)\n",
                    rec.recorded().size(), bst.c_str(),
                    (uintmax_t)std::filesystem::file_size(bst),
                    din.c_str(),
                    (uintmax_t)std::filesystem::file_size(din));
        trace = loadTrace(bst);
        source = bst;
    }

    if (trace.empty()) {
        std::fprintf(stderr, "empty trace\n");
        return 1;
    }

    // Replay through the contenders.
    Table t({"organisation", "accesses", "miss%", "fhs%", "ch%", "fms%",
             "cm%", "las%"});
    const CacheConfig configs[] = {
        parseCacheSpec("dm:16kB"),
        parseCacheSpec("sa:16kB,8w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
    };
    double base = 0;
    for (const auto &cfg : configs) {
        VectorStream replay(trace);
        const MissRateResult r =
            runMissRateOn(replay, cfg, trace.size(), source);
        if (cfg.ways == 1 && cfg.kind == CacheKind::SetAssoc)
            base = r.missRate();
        t.row()
            .cell(cfg.label)
            .cell(std::uint64_t{trace.size()})
            .cell(100.0 * r.missRate(), 3)
            .cell(r.balance.fhsPct, 1)
            .cell(r.balance.chPct, 1)
            .cell(r.balance.fmsPct, 1)
            .cell(r.balance.cmPct, 1)
            .cell(r.balance.lasPct, 1);
    }
    t.print("trace replay + set-balance analysis (16kB, 32B lines)");

    std::printf("\nBalance columns follow the paper's Table 7: the "
                "B-Cache spreads hits and misses across sets\n"
                "(lower ch/cm concentration) relative to the "
                "direct-mapped baseline (miss %.3f%%).\n",
                100.0 * base);

    // The observe/ layer (docs/ARCHITECTURE.md, "Observability layer")
    // quantifies the same imbalance as single numbers: ride a
    // StatsObserver along a run and summarise its per-set histogram.
    // `bsim --stats-json/--heatmap/--interval` exports the full report.
    Table m({"organisation", "max/mean", "CoV", "Gini"});
    for (const auto &cfg : {configs[0], configs[2]}) {
        VectorStream replay(trace);
        ObserverConfig oc;
        oc.enabled = true;
        const MissRateResult r =
            runMissRateOn(replay, cfg, trace.size(), source, oc);
        const BalanceMetrics bm = r.observer->balanceMetrics();
        m.row()
            .cell(cfg.label)
            .cell(bm.maxOverMean, 2)
            .cell(bm.cov, 3)
            .cell(bm.gini, 3);
    }
    m.print("set-reference imbalance (1.00/0/0 = perfectly balanced)");
    return 0;
}
