/**
 * @file
 * Structured (JSON) reporting of experiment results, for machine
 * consumption of the same data the ASCII tables show.
 */

#ifndef BSIM_SIM_REPORT_HH
#define BSIM_SIM_REPORT_HH

#include <string>

#include "common/json.hh"
#include "sim/runner.hh"
#include "sim/trace_replay.hh"

namespace bsim {

/** Append a CacheStats object under the writer's current key. */
void writeJson(JsonWriter &j, const CacheStats &s);

/** Append a PdStats object. */
void writeJson(JsonWriter &j, const PdStats &s);

/** Append a BalanceReport. */
void writeJson(JsonWriter &j, const BalanceReport &b);

/**
 * Serialize one timed (OOO core) run — the `bsim --timed --json` line.
 * Miss-rate runs have one encoding, the bsim-stats-v1 document below;
 * timed runs keep this one because bsim-stats-v1 has no timed schema.
 */
std::string toJson(const TimedResult &r);

/**
 * Serialize one run as a "bsim-stats-v1" document — the shape behind
 * `bsim --stats-json` and `bsim --json`, linted by
 * bench/stats_json_lint.cc and scripts/check_stats_json.sh (change them
 * together). @p driver is
 * "workload" or "trace" depending on what produced @p r.
 */
std::string toStatsJson(const MissRateResult &r,
                        const std::string &driver);

/**
 * The "bsim-stats-v1" document for a sharded replay: driver "sharded",
 * merged totals at top level (balance recomputed from the merged
 * observer histogram when the replay was observed) plus a "shards"
 * array of per-shard run objects in shard order.
 */
std::string toStatsJson(const TraceSweepResult &r,
                        const std::string &workload,
                        const std::string &config);

} // namespace bsim

#endif // BSIM_SIM_REPORT_HH
