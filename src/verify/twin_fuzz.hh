/**
 * @file
 * The registry-wide twin campaign: sample a configuration of any
 * registered cache kind, as a spec string, plus a synthetic workload
 * from one 64-bit seed, and run it through the twin-DUT check of
 * verify/batch_equiv. Every kind has one small sampler, so a registry
 * entry plus a sampler row enrolls a new variant; a kind without a
 * sampler is an error, not a silent gap. Everything derives
 * deterministically from the kind and the seed, so any failure
 * reproduces from its case alone.
 */

#ifndef BSIM_VERIFY_TWIN_FUZZ_HH
#define BSIM_VERIFY_TWIN_FUZZ_HH

#include <cstdint>
#include <string>

#include "verify/batch_equiv.hh"

namespace bsim {

/** One sampled twin case. */
struct TwinCase
{
    /** The cache, in canonical cache-spec grammar (sim/cache_spec.hh). */
    std::string cacheSpec;
    /** Address width the workload is masked to. */
    unsigned addrBits = 24;
    /** Per-step probability of a dirty writeback arriving from above. */
    double writebackFraction = 0.0;
    std::uint64_t seed = 0;

    std::string toString() const;
};

/**
 * Sample a case of registry kind @p kind (its canonical name): lines
 * {16,32,64}, sets 4..1024 (per-kind geometry constraints applied),
 * address widths 18..26, writebacks from above in half the cases, and
 * the kind's own knobs — ways, victim entries, PAD and halt-tag bits,
 * HAC subarrays, replacement and write policies. The bcache row is
 * randomFuzzSpec(seed). Throws std::invalid_argument for a kind with
 * no sampler.
 */
TwinCase sampleTwinCase(const std::string &kind, std::uint64_t seed);

/**
 * Run @p c for @p accesses steps with batch length @p batch_len over
 * the B-Cache fuzzer's workload population (makeFuzzStream scaled to
 * the sampled cache). Asserts the spec string is a fixed point of
 * print(parse(s)), so campaigns double as parser coverage.
 */
BatchEquivResult runTwinCase(const TwinCase &c, std::uint64_t accesses,
                             std::size_t batch_len = 64);

} // namespace bsim

#endif // BSIM_VERIFY_TWIN_FUZZ_HH
