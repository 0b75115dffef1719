/**
 * @file
 * Differential fuzzing of the non-B-Cache engine variants: sample a
 * victim / XOR-mapped / column-associative / skewed / way-halting /
 * partial-match / HAC configuration and a synthetic workload from one
 * 64-bit seed, then twin-drive two identical DUTs — one per-access, one
 * batched — through the shared TagArrayEngine entry points while the
 * fully-associative FunctionalResidencyModel polices residency and
 * write conservation on the per-access twin.
 *
 * This is the alt/ counterpart of verify/fuzz (whose oracles are
 * B-Cache-specific): every variant that composes the tag-array engine
 * gets randomized geometry coverage of its batched/per-access contract,
 * its variant-side counters, and the ordered memory-boundary event
 * sequence. Everything derives deterministically from the seed so any
 * failure reproduces from its case number alone.
 */

#ifndef BSIM_VERIFY_ALT_FUZZ_HH
#define BSIM_VERIFY_ALT_FUZZ_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cache/base_cache.hh"
#include "cache/replacement.hh"
#include "verify/batch_equiv.hh"

namespace bsim {

/** Which engine variant a sampled case instantiates. */
enum class AltKind : std::uint8_t {
    Victim,       ///< DM main array + fully-associative victim buffer
    XorDm,        ///< XOR-folded direct-mapped index
    ColumnAssoc,  ///< column-associative DM with rehash + swap
    Skewed,       ///< two banks, per-bank skewing functions
    WayHalting,   ///< set-associative with halt-tag way filtering
    PartialMatch, ///< set-associative with PAD way prediction
    Hac,          ///< fully-associative subarrays (CAM tags)
};

const char *altKindName(AltKind k);

/** One sampled alt-variant fuzz configuration. */
struct AltFuzzSpec
{
    AltKind kind = AltKind::XorDm;
    std::uint64_t sizeBytes = 16 * 1024;
    std::uint32_t lineBytes = 32;
    /** Ways of the sampled geometry (fixed per kind where required). */
    std::size_t ways = 1;
    std::size_t victimEntries = 8;     ///< Victim only
    unsigned haltBits = 4;             ///< WayHalting only
    unsigned partialBits = 5;          ///< PartialMatch only
    std::uint64_t subarrayBytes = 1024; ///< Hac only
    /** WayHalting / PartialMatch / Hac replacement policy. */
    ReplPolicyKind repl = ReplPolicyKind::LRU;
    /** Address width the workload is masked to. */
    unsigned addrBits = 24;
    /** Per-step probability of a dirty writeback arriving from above. */
    double writebackFraction = 0.0;
    std::uint64_t seed = 0;

    std::string toString() const;

    /**
     * The sampled DUT in the cache-spec grammar (sim/cache_spec.hh),
     * or "" for WayHalting, which has no registered spec kind.
     * runAltFuzzCase() asserts print -> parse -> print is a fixed
     * point, so alt campaigns double as parser coverage for the
     * victim/xor/column/skew/pad/hac grammar entries.
     */
    std::string cacheSpec() const;
};

/**
 * Sample a configuration: kind uniform over the seven variants, lines
 * {16,32,64}, sets 8..1024 (per-kind geometry constraints applied), and
 * the per-kind knobs — victim entries 1..16, halt/partial bits 1..8,
 * HAC subarrays {256,512,1024} B — plus one of the five replacement
 * policies where the variant takes one.
 */
AltFuzzSpec randomAltFuzzSpec(std::uint64_t seed);

/**
 * Instantiate the variant @p spec describes on top of @p next: through
 * the spec registry's build hook, except for WayHalting.
 */
std::unique_ptr<BaseCache> makeAltCache(const AltFuzzSpec &spec,
                                        std::string name, MemLevel *next);

/**
 * Run one case for @p accesses steps with batch length @p batch_len:
 * twin per-access/batched DUTs (writebacks sampled by
 * spec.writebackFraction flush the pending batch first, exactly like
 * runBatchEquivCase), per-access outcomes, aggregate CacheStats,
 * variant-side counters, a deterministic contains() sample, the ordered
 * memory event logs, and the FunctionalResidencyModel invariants on the
 * per-access twin.
 */
BatchEquivResult runAltFuzzCase(const AltFuzzSpec &spec,
                                std::uint64_t accesses,
                                std::size_t batch_len = 64);

} // namespace bsim

#endif // BSIM_VERIFY_ALT_FUZZ_HH
