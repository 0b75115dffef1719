/**
 * @file
 * The twin-DUT batched/per-access equivalence check, for every
 * registered cache: build two identical caches through the spec
 * registry, drive one through access() and the other through
 * accessBatch() with multi-element batches over the same stream, and
 * require bit-identical observable state — per-access outcomes, every
 * CacheStats field, per-line usage, the registry's side counters, a
 * deterministic contains() sample and the exact ordered sequence of
 * memory-boundary events — while the fully-associative
 * FunctionalResidencyModel polices residency and write conservation on
 * the per-access twin.
 *
 * This is the one twin driver; a B-Cache twin also gets the PD checks
 * that have no generic form. Its sources are thin adapters: the
 * sampled cases of verify/campaign, the trace window in
 * verify/trace_drive and the pinned streams of
 * tests/test_batch_equivalence.cc. It is the multi-element complement
 * of OracleOptions::driveBatched, which polices the batched entry point
 * with one-element batches against the shadow-PD oracles.
 */

#ifndef BSIM_VERIFY_BATCH_EQUIV_HH
#define BSIM_VERIFY_BATCH_EQUIV_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bcache/bcache_params.hh"
#include "sim/cache_spec.hh"
#include "workload/access_stream.hh"

namespace bsim {

/** Outcome of one verify run: a twin check, an oracle run or a case. */
struct VerifyResult
{
    bool ok = false;
    std::uint64_t steps = 0; ///< accesses + writebacks driven
    /** The oracle checker's active oracle set; empty for a twin check. */
    std::string oracleModes;
    /** Divergences and mismatches, one line each (capped). */
    std::vector<std::string> problems;

    std::string toString() const;
};

/** Run parameters of one twin case. */
struct TwinRun
{
    /** Steps to drive; a bounded source (a trace window) may end sooner. */
    std::uint64_t accesses = 0;
    /** Elements per accessBatch() call; at least 1. */
    std::size_t batchLen = 64;
    /**
     * Per-step probability of a dirty writeback arriving from above; it
     * flushes the pending batch first, exactly like a runner switching
     * between the two entry points.
     */
    double writebackFraction = 0.0;
    /** Seeds the writeback interleaving and the contains() sample. */
    std::uint64_t seed = 0;
    /** Records are masked to, and the sample drawn from, this width. */
    unsigned addrBits = 24;
};

/**
 * The records a twin check drives: the next 1..max_n records, valid
 * until the next call; an empty span ends the run (a trace reader's
 * nextSpan, or a generator adapted by the AccessStream overload).
 */
using RecordSource =
    std::function<std::span<const MemAccess>(std::size_t max_n)>;

/**
 * Twin-drive two caches built from @p config over @p source. A B-Cache
 * pair is built from seededBCacheParams(config, run.seed) and also
 * compared on lastOutcome() after every batch, classify() over the
 * address sample, and validLines(). Stops collecting after a handful of
 * mismatches.
 */
VerifyResult runBatchEquiv(const CacheConfig &config,
                           const RecordSource &source, const TwinRun &run);

/** The same check over an unbounded generator. */
VerifyResult runBatchEquiv(const CacheConfig &config, AccessStream &stream,
                           const TwinRun &run);

/**
 * The B-Cache @p config names (its kind must be BCache), with the
 * replacement RNG seeded from @p seed, so random-replacement runs
 * differ from case to case.
 */
BCacheParams seededBCacheParams(const CacheConfig &config,
                                std::uint64_t seed);

} // namespace bsim

#endif // BSIM_VERIFY_BATCH_EQUIV_HH
