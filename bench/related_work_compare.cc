/**
 * @file
 * Sections 6.6/6.7/7 comparison: suite-average miss-rate reductions of
 * the B-Cache against the other direct-mapped conflict-miss techniques
 * (victim buffer, column-associative, 2-way skewed-associative) and the
 * highly-associative CAM-tag cache (HAC), together with each technique's
 * hit-latency behaviour — the B-Cache's differentiator is one-cycle hits
 * for ALL hits at a direct-mapped access time.
 *
 * The (D$ suite + I$ suite) x 11 (workload, config) cells run on the
 * parallel sweep engine (`--jobs N` / BSIM_JOBS selects the worker
 * count); every technique's access loop is the shared tag-array engine
 * driven in batched mode.
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main(int argc, char **argv)
{
    banner("related_work_compare",
           "Sections 6.6/6.7/7 (victim, column-assoc, skewed, HAC)");
    const std::uint64_t n = defaultAccesses(400'000);

    // The last entry is the paper's Section 6.7 suggestion: an "improved
    // HAC" — the HAC's cluster structure (BAS = 32) driven by a short
    // B-Cache-style PD (MF = 64 -> 11 CAM bits) instead of the HAC's
    // full 26-bit CAM tag, trading a few points of reduction for less
    // than half the CAM width (area, search energy and match delay).
    const std::vector<CacheConfig> configs = {
        parseCacheSpec("dm:16kB+victim:16"),
        parseCacheSpec("column:16kB"),
        parseCacheSpec("xor:16kB"),
        parseCacheSpec("skew:16kB"),
        parseCacheSpec("hac:16kB"),
        parseCacheSpec("pad:16kB,2w,bits=5"),
        parseCacheSpec("sa:16kB,4w"),
        parseCacheSpec("sa:16kB,8w"),
        parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        parseCacheSpec("bcache:16kB,mf=64,bas=32"),
    };
    const char *latency_note[] = {
        "+1 cycle on buffer hits",
        "+1 cycle on rehash hits, swaps",
        "1 cycle, XOR stage before decode",
        "longer access (2 indexed banks)",
        "longer access (serial decode+CAM)",
        "fast cycle + 2nd on mispredict (7.2)",
        "longer access (way mux)",
        "longer access (way mux)",
        "1 cycle, DM access time",
        "1 cycle, 11-bit PD (improved HAC, 6.7)",
    };

    SweepOptions options;
    options.jobs = consumeJobsFlag(argc, argv);

    const RowSweep sweep_d = runRows(spec2kNames(), StreamSide::Data,
                                     configs, 16 * 1024, n, options);
    const RowSweep sweep_i =
        runRows(spec2kIcacheReportedNames(), StreamSide::Inst, configs,
                16 * 1024, n, options);

    RunningStat red_d[10], red_i[10];
    for (const auto &b : spec2kNames())
        for (std::size_t i = 0; i < configs.size(); ++i)
            red_d[i].add(
                reductionOf(sweep_d.rows.at(b), configs[i].label));
    for (const auto &b : spec2kIcacheReportedNames())
        for (std::size_t i = 0; i < configs.size(); ++i)
            red_i[i].add(
                reductionOf(sweep_i.rows.at(b), configs[i].label));

    Table t({"technique", "D$ red%", "I$ red%", "hit latency"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        t.row()
            .cell(configs[i].label)
            .cell(red_d[i].mean(), 1)
            .cell(red_i[i].mean(), 1)
            .cell(latency_note[i]);
    }
    t.print("suite-average miss-rate reduction over the 16kB "
            "direct-mapped baseline");

    SweepSummary summary = sweep_d.summary;
    summary.merge(sweep_i.summary);
    printSweepSummary(summary);
    return 0;
}
