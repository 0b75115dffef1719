/**
 * @file
 * Trace-driven entry points into the verify layer: run the full
 * OracleChecker arsenal, or the twin-DUT batched/per-access equivalence
 * check, over a window of a real trace file instead of a fuzzed
 * synthetic stream. This closes the loop between the streaming
 * ingestion layer (workload/trace_reader) and the differential
 * oracles — a captured workload that misbehaves in an experiment can be
 * replayed under the checker verbatim, shard by shard.
 *
 * Trace records are masked to OracleOptions::addrBits (resp. the twin
 * check's addr_bits) on the way in, because the shadow oracles need a
 * bound on the upper-address width; the copy this implies is fine here —
 * verification runs are not the perf path.
 */

#ifndef BSIM_VERIFY_TRACE_DRIVE_HH
#define BSIM_VERIFY_TRACE_DRIVE_HH

#include <string>

#include "verify/batch_equiv.hh"
#include "verify/oracle_checker.hh"
#include "workload/trace_reader.hh"

namespace bsim {

/**
 * Drive the B-Cache @p config names and its oracles in lockstep over
 * one trace window (the whole file by default). @p max_accesses 0
 * replays the window to its end; traces carry no writebacks from above,
 * so only onAccess steps are driven. Divergences stop the replay early,
 * exactly like runOracleCase (verify/campaign).
 */
VerifyResult runOracleOnTrace(const std::string &path,
                              const CacheConfig &config,
                              const OracleOptions &opts = {},
                              const TraceShard &shard = {},
                              std::uint64_t max_accesses = 0);

/**
 * The twin-DUT check of verify/batch_equiv over one trace window: twins
 * built from @p config, @p batch_len-element batches, records masked to
 * @p addr_bits. @p max_accesses 0 replays the window to its end.
 */
VerifyResult runBatchEquivOnTrace(const std::string &path,
                                  const CacheConfig &config,
                                  unsigned addr_bits = 32,
                                  std::size_t batch_len = 64,
                                  const TraceShard &shard = {},
                                  std::uint64_t max_accesses = 0);

} // namespace bsim

#endif // BSIM_VERIFY_TRACE_DRIVE_HH
