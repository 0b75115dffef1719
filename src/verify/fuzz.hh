/**
 * @file
 * Randomized differential fuzzing of the B-Cache: sample a configuration
 * (geometry, MF/BAS, replacement policy, write policy, address width) and a
 * synthetic workload from one 64-bit seed, then drive DUT and oracles in
 * lockstep through an OracleChecker. Everything derives deterministically
 * from the seed so any failure reproduces from its case number alone.
 */

#ifndef BSIM_VERIFY_FUZZ_HH
#define BSIM_VERIFY_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bcache/bcache_params.hh"
#include "verify/oracle_checker.hh"
#include "workload/access_stream.hh"

namespace bsim {

/** One sampled fuzz configuration. */
struct FuzzSpec
{
    BCacheParams params;
    /** Address width the workload is masked to. */
    unsigned addrBits = 24;
    /** Per-step probability of a dirty writeback arriving from above. */
    double writebackFraction = 0.0;
    std::uint64_t seed = 0;

    std::string toString() const;

    /**
     * The sampled DUT in the cache-spec grammar (sim/cache_spec.hh),
     * e.g. "bcache:16kB,mf=8,bas=8,repl=fifo". replSeed, addrBits and
     * the workload knobs are harness state, not part of the grammar;
     * every mapping-relevant field round-trips. runFuzzCase() asserts
     * print -> parse -> print is a fixed point, so fuzz campaigns
     * double as parser coverage.
     */
    std::string cacheSpec() const;
};

/**
 * Sample a configuration: sets 8..1024, lines {16,32,64}, BAS 1..16,
 * MF 1..64 — with a bias towards the two exact-equivalence limits (BAS=1
 * and a saturated PI) so a production SetAssocCache oracle is engaged in
 * a sizeable fraction of cases.
 */
FuzzSpec randomFuzzSpec(std::uint64_t seed);

/**
 * Workload for @p spec: 1-3 interleaved conflict/locality primitives from
 * workload/generators.hh, run through WriteMixStream and masked to
 * spec.addrBits.
 */
AccessStreamPtr makeFuzzStream(const FuzzSpec &spec);

/** Outcome of one fuzz case. */
struct FuzzResult
{
    bool ok = false;
    std::uint64_t steps = 0;          ///< accesses + writebacks driven
    std::string oracleModes;          ///< checker's active oracle set
    std::vector<Divergence> divergences;

    std::string toString() const;
};

/**
 * Run one case for @p accesses steps (stops early on divergence). With
 * @p drive_batched the DUT is driven through accessBatch() one-element
 * batches, so the same oracles police the batched entry point.
 */
FuzzResult runFuzzCase(const FuzzSpec &spec, std::uint64_t accesses,
                       bool drive_batched = false);

} // namespace bsim

#endif // BSIM_VERIFY_FUZZ_HH
