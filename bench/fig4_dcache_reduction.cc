/**
 * @file
 * Figure 4 reproduction: data-cache miss-rate reductions over the 16 kB
 * direct-mapped baseline for 2/4/8/32-way caches, a 16-entry victim
 * buffer and the B-Cache at MF in {2,4,8,16} with BAS = 8 (LRU), printed
 * as the paper does in CFP2K and CINT2K groups with suite averages.
 *
 * The 26 x 10 (workload, config) cells run on the parallel sweep engine
 * (`--jobs N` / BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("fig4_dcache_reduction",
           "Figure 4 (D$ miss-rate reductions, 16 kB)");
    const std::uint64_t n = defaultAccesses(1'000'000);
    const auto configs = figure4Configs(16 * 1024);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    const RowSweep sweep = runRows(spec2kNames(), StreamSide::Data,
                                   configs, 16 * 1024, n, options);

    printReductionTable("SPEC2K Floating Point (CFP2K), D$ reduction %",
                        spec2kFpNames(), configs, sweep.rows);
    printReductionTable("SPEC2K Integer (CINT2K), D$ reduction %",
                        spec2kIntNames(), configs, sweep.rows);
    printSweepSummary(sweep.summary);
    return 0;
}
