/**
 * @file
 * Machine-readable perf telemetry: when BSIM_BENCH_JSON names a file,
 * every sweep harness, bsim and the perf gate in tests/ append one record
 * per run to it, a JSON array of
 *
 *   {"bench": ..., "config": ..., "accesses_per_sec": ..., "wall_s": ...,
 *    "jobs": ..., "git_rev": ...}
 *
 * objects, giving the repo a perf trajectory across commits (see
 * EXPERIMENTS.md "Perf trajectory"; the tracked log is BENCH_perf.json).
 * With BSIM_BENCH_JSON unset or empty nothing is written. Appends are
 * atomic (write-temp + rename) and never clobber data: a malformed
 * existing file is quarantined to <path>.corrupt and a fresh array
 * started.
 *
 * BSIM_GIT_REV overrides the recorded revision (otherwise
 * `git rev-parse --short HEAD`).
 */

#ifndef BSIM_BENCH_BENCH_JSON_HH
#define BSIM_BENCH_BENCH_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace bsim {
namespace bench {

/** One BENCH_perf.json entry. */
struct PerfRecord
{
    std::string bench;          ///< harness name, e.g. "fig3_mf_sweep"
    std::string config;         ///< cell/config label within the harness
    double accessesPerSec = 0.0;
    double wallSeconds = 0.0;
    unsigned jobs = 1;          ///< worker threads the run used
    std::string gitRev;         ///< filled from currentGitRev() if empty
};

/** Output path: the BSIM_BENCH_JSON env value, else "" (no sink). */
std::string benchJsonPath();

/** BSIM_GIT_REV env, else `git rev-parse --short HEAD`, else "unknown". */
std::string currentGitRev();

/**
 * Append @p records to the perf log at @p path (empty = benchJsonPath();
 * if that is empty too, nothing is written). Returns "" on success,
 * otherwise a diagnostic; a malformed existing file is moved aside to
 * <path>.corrupt rather than overwritten.
 */
std::string appendPerfRecords(const std::vector<PerfRecord> &records,
                              const std::string &path = "");

/** Single-record convenience wrapper around appendPerfRecords(). */
std::string appendPerfRecord(const PerfRecord &record,
                             const std::string &path = "");

/**
 * Append one record built from a sweep's aggregate metrics to
 * benchJsonPath() (the harnesses call this right after
 * printSweepSummary()); a no-op when there is no sink. Failures are
 * reported on stderr but never abort the harness.
 */
void reportSweepPerf(const std::string &bench, const std::string &config,
                     const SweepSummary &summary);

/**
 * Schema check used by the lint tool and the unit tests: @p text must be
 * a JSON array of objects carrying exactly the PerfRecord keys with the
 * right types. Returns the record count, or nullopt with @p error set.
 */
std::optional<std::size_t> validatePerfJson(const std::string &text,
                                            std::string *error);

} // namespace bench
} // namespace bsim

#endif // BSIM_BENCH_BENCH_JSON_HH
