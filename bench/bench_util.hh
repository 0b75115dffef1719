/**
 * @file
 * Helpers shared by the benchmark harnesses: suite iteration, averaged
 * reduction computation and formatting conventions. Every harness prints
 * the rows/series of one paper table or figure (see DESIGN.md's
 * per-experiment index); run lengths honour BSIM_ACCESSES / BSIM_UOPS.
 */

#ifndef BSIM_BENCH_BENCH_UTIL_HH
#define BSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace bsim {
namespace bench {

/** Miss rates of one workload across configurations, keyed by label. */
using MissRow = std::map<std::string, MissRateResult>;

/** Rows of a whole benchmark suite plus the sweep-engine metrics. */
struct RowSweep
{
    std::map<std::string, MissRow> rows;
    SweepSummary summary;
};

/**
 * Run each benchmark's @p side through the @p size_bytes direct-mapped
 * baseline plus @p configs: one sweep over benchmarks x (baseline +
 * configs), executed by the sweep engine (worker count from @p options
 * — `--jobs` / BSIM_JOBS), which generates each benchmark's stream once
 * for all of its caches. Rows are keyed by benchmark, then by config
 * label, with "baseline" holding the direct-mapped reference. Jobs pin
 * kDefaultSeed so the tables match the serial runs in EXPERIMENTS.md.
 */
inline RowSweep
runRows(const std::vector<std::string> &benchmarks, StreamSide side,
        const std::vector<CacheConfig> &configs,
        std::uint64_t size_bytes, std::uint64_t accesses,
        const SweepOptions &options = {})
{
    std::vector<SweepJob> jobs;
    jobs.reserve(benchmarks.size() * (configs.size() + 1));
    for (const auto &b : benchmarks) {
        jobs.push_back(
            SweepJob::missRate(
                b, side,
                parseCacheSpec("dm:" + std::to_string(size_bytes)),
                accesses, kDefaultSeed));
        for (const auto &cfg : configs)
            jobs.push_back(
                SweepJob::missRate(b, side, cfg, accesses,
                                   kDefaultSeed));
    }
    const SweepRun run = runSweep(jobs, options);

    RowSweep rs;
    rs.summary = run.summary;
    const std::size_t stride = configs.size() + 1;
    for (std::size_t bi = 0; bi < benchmarks.size(); ++bi) {
        MissRow row;
        row.emplace("baseline", missResult(run.outcomes[bi * stride]));
        for (std::size_t ci = 0; ci < configs.size(); ++ci)
            row.emplace(configs[ci].label,
                        missResult(run.outcomes[bi * stride + 1 + ci]));
        rs.rows.emplace(benchmarks[bi], std::move(row));
    }
    return rs;
}

/** Timed results of one benchmark, one per config in config order. */
using TimedRow = std::vector<TimedResult>;

/**
 * Run each benchmark through the OOO core once per config in
 * @p configs under @p hierarchy: one sweep over benchmarks x configs
 * (worker count from @p options — `--jobs` / BSIM_JOBS), which
 * generates each benchmark's µop stream once for all of its cores.
 * Rows come back in benchmark order. Jobs pin kDefaultSeed, so every
 * result equals the serial runTimed() call behind EXPERIMENTS.md.
 */
inline std::vector<TimedRow>
runTimedRows(const std::vector<std::string> &benchmarks,
             const std::vector<CacheConfig> &configs, std::uint64_t uops,
             const SweepOptions &options,
             const HierarchyParams &hierarchy = {})
{
    std::vector<SweepJob> jobs;
    jobs.reserve(benchmarks.size() * configs.size());
    for (const auto &b : benchmarks)
        for (const auto &cfg : configs)
            jobs.push_back(
                SweepJob::timed(b, cfg, uops, kDefaultSeed, hierarchy));
    const SweepRun run = runSweep(jobs, options);

    std::vector<TimedRow> rows(benchmarks.size());
    for (std::size_t bi = 0; bi < benchmarks.size(); ++bi)
        for (std::size_t ci = 0; ci < configs.size(); ++ci)
            rows[bi].push_back(timedResult(
                run.outcomes[bi * configs.size() + ci]));
    return rows;
}

/** Reduction (%) of config @p label over the row's baseline. */
inline double
reductionOf(const MissRow &row, const std::string &label)
{
    return reductionPct(row.at("baseline").missRate(),
                        row.at(label).missRate());
}

/** Print a standard figure table: benchmarks x configs, reductions. */
inline void
printReductionTable(const std::string &title,
                    const std::vector<std::string> &benchmarks,
                    const std::vector<CacheConfig> &configs,
                    const std::map<std::string, MissRow> &rows)
{
    std::vector<std::string> headers{"benchmark", "dm-miss%"};
    for (const auto &c : configs)
        headers.push_back(c.label);
    Table t(headers);
    std::vector<RunningStat> avg(configs.size());
    RunningStat avg_dm;
    for (const auto &b : benchmarks) {
        const MissRow &row = rows.at(b);
        t.row().cell(b).cell(100.0 * row.at("baseline").missRate(), 2);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double red = reductionOf(row, configs[i].label);
            t.cell(red, 1);
            avg[i].add(red);
        }
        avg_dm.add(100.0 * row.at("baseline").missRate());
    }
    t.row().cell("Ave").cell(avg_dm.mean(), 2);
    for (const auto &a : avg)
        t.cell(a.mean(), 1);
    t.print(title);
}

/** Banner used by every harness. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("==========================================================\n"
                "B-Cache reproduction: %s\n"
                "Paper artefact: %s\n"
                "==========================================================\n",
                experiment, paper_ref);
}

} // namespace bench
} // namespace bsim

#endif // BSIM_BENCH_BENCH_UTIL_HH
