/**
 * @file
 * Section 6.4 extension: the paper notes that after balancing, the
 * B-Cache still has plenty of less-accessed sets, so leakage techniques
 * (Drowsy Cache, Cache Decay) remain applicable. This harness runs the
 * drowsy estimator on the baseline and the B-Cache and reports the
 * leakage factor and wake-up overhead for both.
 */

#include "bench/bench_util.hh"
#include "power/drowsy.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

namespace {

DrowsyReport
runDrowsy(const std::string &bench, const CacheConfig &cfg,
          std::uint64_t n)
{
    auto cache = cfg.build(cfg.label);
    DrowsyEstimator est(cache->geometry().numLines(), DrowsyParams{});
    cache->setCacheObserver(&est);
    SpecWorkload w = makeSpecWorkload(bench);
    for (std::uint64_t i = 0; i < n; ++i)
        cache->access(w.data->next());
    return est.report();
}

} // namespace

int
main()
{
    banner("ablation_drowsy",
           "Section 6.4 extension (drowsy-state leakage compatibility)");
    const std::uint64_t n = defaultAccesses(400'000);

    Table t({"benchmark", "dm-drowsy%", "dm-leak-x", "bc-drowsy%",
             "bc-leak-x", "bc-wake/1k-acc"});
    RunningStat a_dmd, a_dml, a_bcd, a_bcl;
    for (const auto &b : spec2kNames()) {
        const DrowsyReport dm =
            runDrowsy(b, parseCacheSpec("dm:16kB"), n);
        const DrowsyReport bc =
            runDrowsy(b, parseCacheSpec("bcache:16kB,mf=8,bas=8"), n);
        t.row()
            .cell(b)
            .cell(100.0 * dm.drowsyFraction, 1)
            .cell(dm.leakageFactor, 3)
            .cell(100.0 * bc.drowsyFraction, 1)
            .cell(bc.leakageFactor, 3)
            .cell(1000.0 * double(bc.wakeups) / double(bc.ticks), 2);
        a_dmd.add(100.0 * dm.drowsyFraction);
        a_dml.add(dm.leakageFactor);
        a_bcd.add(100.0 * bc.drowsyFraction);
        a_bcl.add(bc.leakageFactor);
    }
    t.row()
        .cell("Ave")
        .cell(a_dmd.mean(), 1)
        .cell(a_dml.mean(), 3)
        .cell(a_bcd.mean(), 1)
        .cell(a_bcl.mean(), 3)
        .cell("");
    t.print("drowsy-window leakage on the 16kB D$ (window 2000 "
            "accesses, drowsy leak 0.1x)");
    return 0;
}
