/**
 * @file
 * Figure 12 reproduction: suite-average miss-rate reductions at L1 sizes
 * of 32 kB and 8 kB (data and instruction caches) for 2/4/8-way caches,
 * victim16 and the B-Cache MF x BAS grid (MF in {2,4,8,16}, BAS in
 * {4,8}).
 *
 * Each column is one sweep on the parallel sweep engine (`--jobs N` /
 * BSIM_JOBS selects the worker count).
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

namespace {

/** Suite-average reduction of each Figure 12 config at one size/side. */
std::vector<double>
column(std::uint64_t size, StreamSide side,
       const std::vector<std::string> &benchmarks, std::uint64_t n,
       const SweepOptions &options)
{
    const auto configs = figure12Configs(size);
    const RowSweep sweep =
        runRows(benchmarks, side, configs, size, n, options);
    std::vector<RunningStat> avg(configs.size());
    for (const auto &b : benchmarks) {
        const MissRow &row = sweep.rows.at(b);
        for (std::size_t i = 0; i < configs.size(); ++i)
            avg[i].add(reductionOf(row, configs[i].label));
    }
    std::vector<double> col;
    for (const auto &a : avg)
        col.push_back(a.mean());
    return col;
}

} // namespace

int
main(int argc, char **argv)
{
    banner("fig12_sizes",
           "Figure 12 (miss-rate reductions at 32 kB and 8 kB)");
    const std::uint64_t n = defaultAccesses(500'000);
    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    const auto configs = figure12Configs(8 * 1024); // labels only
    Table t({"config", "32K D$", "32K I$", "8K D$", "8K I$"});

    const std::vector<std::vector<double>> cols = {
        column(32 * 1024, StreamSide::Data, spec2kNames(), n, options),
        column(32 * 1024, StreamSide::Inst, spec2kIcacheReportedNames(),
               n, options),
        column(8 * 1024, StreamSide::Data, spec2kNames(), n, options),
        column(8 * 1024, StreamSide::Inst, spec2kIcacheReportedNames(),
               n, options),
    };

    for (std::size_t i = 0; i < configs.size(); ++i) {
        t.row().cell(configs[i].label);
        for (const auto &col : cols)
            t.cell(col[i], 1);
    }
    t.print("suite-average miss-rate reduction % over the same-sized "
            "direct-mapped baseline");
    return 0;
}
