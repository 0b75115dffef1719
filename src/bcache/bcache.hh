/**
 * @file
 * The Balanced Cache (B-Cache): a direct-mapped cache whose local decoders
 * are partly programmable (Zhang, ISCA 2006).
 *
 * Functional model
 * ----------------
 * Physical lines are grouped by the NPI low index bits; each of the 2^NPI
 * groups holds BAS lines (the victim pool). Every line stores the full
 * "upper" part of its block address (everything above the NPI bits); its
 * programmable-decoder (PD) pattern is the low PI bits of that value.
 *
 * On an access the PD conceptually compares the address's PI bits against
 * all BAS patterns of the group. Because valid patterns within a group are
 * kept pairwise distinct (the unique-decoding constraint of Figure 1c), at
 * most one line activates — the access is still direct-mapped and all hits
 * take one cycle.
 *
 * Outcomes:
 *  - PD hit, tag match  -> cache hit.
 *  - PD hit, tag miss   -> the activated line must itself be replaced (a
 *    different victim would require evicting two blocks to keep decoding
 *    unique); the PD pattern is unchanged.
 *  - PD miss            -> the miss is known before any tag/data array is
 *    read (energy is saved); the victim is chosen from the whole group by
 *    the replacement policy and its PD entry is reprogrammed.
 *
 * Limits (verified by property tests): BAS = 1 is exactly the baseline
 * direct-mapped cache; MF large enough that PI covers the entire upper
 * address makes the B-Cache exactly a BAS-way set-associative cache with
 * 2^NPI sets.
 *
 * Composed over the shared TagArrayEngine: the PD is this variant's
 * (dynamic) index function + way filter in one structure, so probe()
 * runs the PD match, victimFrame() enforces the forced-replacement rule,
 * and install() reprograms the pattern. The engine owns the
 * access()/accessBatch()/writeback() sequencing. The batched hot path
 * (tryFastHit) decodes against the flat pattern CAM with a branch-free
 * select, skips the decode when an access repeats the block of the
 * last fast hit, and hands its probe to the engine on a fall-through.
 */

#ifndef BSIM_BCACHE_BCACHE_HH
#define BSIM_BCACHE_BCACHE_HH

#include <vector>

#include "bcache/bcache_params.hh"
#include "cache/replacement.hh"
#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

/** Decoder-level outcome of a single B-Cache access. */
enum class PdOutcome : std::uint8_t {
    HitAndCacheHit,   ///< PD matched and the tag matched too
    HitButCacheMiss,  ///< PD matched, tag differed: forced replacement
    Miss,             ///< no PD pattern matched: miss predetermined
};

/** Extra statistics specific to the programmable decoder. */
struct PdStats
{
    std::uint64_t pdHitCacheMiss = 0; ///< PD hit during a cache miss
    std::uint64_t pdMiss = 0;         ///< PD miss (always a cache miss)

    /**
     * The paper's "PD hit rate during cache misses" (Figure 3, Table 6):
     * the fraction of misses in which the PD nonetheless matched, forcing
     * the replacement to the activated line.
     */
    double pdHitRateOnMiss() const
    {
        const std::uint64_t m = pdHitCacheMiss + pdMiss;
        return m ? double(pdHitCacheMiss) / double(m) : 0.0;
    }

    /** Fraction of misses predicted by the PD (tag/data read avoided). */
    double missPredictionRate() const
    {
        const std::uint64_t m = pdHitCacheMiss + pdMiss;
        return m ? double(pdMiss) / double(m) : 0.0;
    }

    /**
     * Field-wise merge; the single source of truth for summing shard
     * counters (sim/trace_replay.cc), mirroring CacheStats::operator+=.
     */
    PdStats &
    operator+=(const PdStats &other)
    {
        static_assert(sizeof(PdStats) == 2 * sizeof(std::uint64_t),
                      "PdStats gained a field: add it to operator+= and "
                      "to the merge round-trip test");
        pdHitCacheMiss += other.pdHitCacheMiss;
        pdMiss += other.pdMiss;
        return *this;
    }

    void reset() { *this = PdStats{}; }
};

class BCache : public TagArrayEngine<BCache>
{
  public:
    BCache(std::string name, const BCacheParams &params,
           Cycles hit_latency = 1, MemLevel *next = nullptr);

    void reset() override;

    const BCacheParams &params() const { return params_; }
    const BCacheLayout &layout() const { return layout_; }
    const PdStats &pdStats() const { return pdStats_; }

    /** Decoder outcome of the most recent access (for tests/telemetry). */
    PdOutcome lastOutcome() const { return lastOutcome_; }

    /** True if the block containing @p addr is resident (no side effects). */
    bool contains(Addr addr) const override;

    /**
     * Side-effect-free decoder probe: the PdOutcome an access to @p addr
     * would produce against the current PD/tag state. The verify/ oracle
     * checks that the outcome recorded by the mutating access() path
     * agrees with this probe taken just before the access.
     */
    PdOutcome classify(Addr addr) const;

    /**
     * Verify the unique-decoding invariant: valid PD patterns within each
     * group are pairwise distinct. Returns true when it holds.
     */
    bool checkUniqueDecoding() const;

    /**
     * The invariant restricted to one group. A mutation can only break
     * uniqueness in the group it touched, so the verify/ checker calls
     * this after every access and the full sweep only periodically.
     */
    bool checkUniqueDecoding(std::size_t group) const;

    /** Number of valid lines (for tests). */
    std::size_t validLines() const;

    /**
     * Valid lines per NPI group — the decoder's unique-decoding
     * occupancy (each valid line holds one distinct PD pattern, so this
     * is also the number of programmed decoder entries). Snapshot for
     * the observe/ telemetry layer; side-effect free.
     */
    std::vector<std::uint32_t> groupOccupancy() const;

    /**
     * Fault injection for tests: overwrite the PD pattern of a line
     * (by rewriting the low PI bits of its stored upper field), as a
     * soft error in a CAM cell would. May break the unique-decoding
     * invariant — that is the point; pair with checkUniqueDecoding().
     */
    void debugCorruptPd(std::size_t group, std::size_t way,
                        Addr pattern);

  private:
    friend class TagArrayEngine<BCache>;

    /** Engine probe result: NPI group, upper field, PD match. */
    struct Probe : ProbeBase
    {
        std::size_t group = 0;
        Addr upper = 0;
        Addr pattern = 0;
        int pdWay = -1;
    };

    /** Hoisted fields of the batched fast hit path (one per batch). */
    struct BatchCtx
    {
        const Addr *pats;
        std::size_t bas;
        unsigned offsetBits;
        unsigned npiBits;
        Addr piMask;
        Cycles hitLat;
        bool writeBack;
        SetUsage *usage;
        CacheObserver *obs;
        /**
         * lastOutcome_ for fast-path hits is written once per batch by
         * finishBatch() (it only needs to reflect the final access).
         */
        bool lastFast = false;
        /**
         * Consult the memo this batch: memoPays(), and more than one
         * line per group (BAS = 1 has no decode for the memo to skip).
         */
        bool useMemo;
        /**
         * Last-block memo: block number and PD way of the last fast
         * hit, or kEmptyKey (no block number equals it) for none. Fast
         * hits never reprogram the decoder or move a tag, so the memo
         * stays exact until a fall-through to the engine clears it.
         */
        Addr memoBlock = kEmptyKey;
        int memoWay = 0;
    };

    // Engine traits + hooks (see cache/tag_array_engine.hh).
    static constexpr bool kHasWritePolicy = true;
    static constexpr bool kCountWritebackRefills = true;

    bool
    writeThroughPolicy() const
    {
        return params_.writePolicy == WritePolicy::WriteThroughNoAllocate;
    }

    Probe probe(const MemAccess &req, EngineMode mode);
    void onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
               bool set_dirty);
    void onMissClassified(const Probe &pr, EngineMode mode);
    std::size_t victimFrame(const Probe &pr, const MemAccess &req,
                            EngineMode mode);
    void install(std::size_t frame, const Probe &pr, const MemAccess &req,
                 EngineMode mode);

    BatchCtx makeBatchContext();
    bool tryFastHit(BatchCtx &ctx, const MemAccess &req,
                    BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr);
    /**
     * tryFastHit() with the memo compiled in or out, so a batch that
     * does not consult the memo pays nothing for it.
     */
    template <bool kMemo>
    bool fastHit(BatchCtx &ctx, const MemAccess &req,
                 BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr);
    void finishBatch(BatchCtx &ctx);

    /** Group (NPI decode) of an address. */
    std::size_t groupOf(Addr addr) const;
    /** Upper field (everything above the NPI bits) of an address. */
    Addr upperOf(Addr addr) const;
    /** PD pattern of an upper field. */
    Addr pdPattern(Addr upper) const { return upper & piMask_; }

    /** Way whose valid PD pattern matches, or -1 (the decode step). */
    int pdMatch(std::size_t group, Addr pattern) const;

    /**
     * Sentinel stored in pdPatterns_ for invalid lines. Cannot collide
     * with a real pattern: patterns are upper-address bits masked to
     * piBits, and an upper field always has its top (offset + NPI) bits
     * clear, so it is never all-ones.
     */
    static constexpr Addr kNoPattern = ~Addr{0};

    BCacheParams params_;
    BCacheLayout layout_;
    Addr piMask_;
    /**
     * One frame per physical line, keyed by the upper field (block
     * address >> npiBits; its low piBits are the PD pattern).
     */
    TagStore tags_;
    /**
     * The decoder CAM: each frame's PD pattern (kNoPattern when empty),
     * indexed like tags_. The decode step (pdMatch) scans this flat
     * array of patterns — one cache line covers a whole BAS=8 group —
     * and only the matched way's upper field is read from tags_.
     */
    std::vector<Addr> pdPatterns_;
    Replacement repl_;
    PdStats pdStats_;
    PdOutcome lastOutcome_ = PdOutcome::Miss;
};

/** Engine compiled once, in bcache.cc, next to the hook definitions. */
extern template class TagArrayEngine<BCache>;

} // namespace bsim

#endif // BSIM_BCACHE_BCACHE_HH
