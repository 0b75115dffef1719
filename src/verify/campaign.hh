/**
 * @file
 * The one verification campaign: sample a case of any registered cache
 * kind, as a spec string plus workload knobs, from one 64-bit seed,
 * and run it under the OracleChecker (B-Cache cases) or through the
 * twin-DUT check of verify/batch_equiv (every kind). Every kind has one
 * small sampler row, so a registry entry plus a sampler row enrolls a
 * new variant; a kind without a row is an error, not a silent gap.
 * Everything derives deterministically from the kind and the seed, so
 * any failure reproduces from its case alone.
 */

#ifndef BSIM_VERIFY_CAMPAIGN_HH
#define BSIM_VERIFY_CAMPAIGN_HH

#include <cstdint>
#include <string>

#include "verify/batch_equiv.hh"
#include "workload/access_stream.hh"

namespace bsim {

/** One verification case. */
struct VerifyCase
{
    /** The cache, in cache-spec grammar (sim/cache_spec.hh). */
    std::string cacheSpec;
    /** Address width the workload is masked to. */
    unsigned addrBits = 24;
    /** Per-step probability of a dirty writeback arriving from above. */
    double writebackFraction = 0.0;
    /**
     * Seeds the workload, the writeback draws and, for a B-Cache, the
     * replacement RNG.
     */
    std::uint64_t seed = 0;

    std::string toString() const;
};

/**
 * Sample a case of registry kind @p kind (its canonical name): lines
 * {16,32,64}, sets 4..1024 (per-kind geometry constraints applied),
 * address widths 18..26, writebacks from above in half the cases, and
 * the kind's own knobs — ways, victim entries, PAD bits, HAC
 * subarrays, replacement and write policies. The bcache row draws
 * sets 8..1024, BAS 1..16 and MF 1..64, with a bias towards the two
 * exact-equivalence limits (BAS = 1 and a saturated PI) so a production
 * SetAssocCache oracle engages in a sizeable share of cases. The spec
 * comes back canonical. Throws std::invalid_argument for a kind with no
 * sampler row.
 */
VerifyCase sampleCase(const std::string &kind, std::uint64_t seed);

/**
 * Workload for @p c: 1-3 interleaved conflict/locality primitives from
 * workload/generators.hh scaled to the cache, run through
 * WriteMixStream and masked to c.addrBits.
 */
AccessStreamPtr makeCaseStream(const VerifyCase &c);

/**
 * Drive the B-Cache @p c names and its OracleChecker in lockstep for
 * @p accesses steps, stopping at the first divergence. With
 * @p drive_batched every DUT access goes through accessBatch()
 * one-element batches, so the same oracles police the batched entry
 * point. @p c must name a bcache.
 */
VerifyResult runOracleCase(const VerifyCase &c, std::uint64_t accesses,
                           bool drive_batched = false);

/**
 * Twin-drive @p c per-access vs in @p batch_len-element batches for
 * @p accesses steps (runBatchEquiv).
 */
VerifyResult runTwinCase(const VerifyCase &c, std::uint64_t accesses,
                         std::size_t batch_len = 64);

} // namespace bsim

#endif // BSIM_VERIFY_CAMPAIGN_HH
