/**
 * @file
 * Partial-address-matching set-associative cache (Section 7.2): the tag
 * store is split into a small Partial Address Directory (e.g. 5 bits
 * per way) used to *predict* the hit way before the full Main Directory
 * comparison confirms it. A correct prediction gives a one-cycle hit; a
 * partial-tag alias that the full comparison rejects costs a second
 * cycle to access the correct way.
 *
 * The paper's contrast: the B-Cache never needs the extra cycle because
 * its PD miss *predetermines* the miss, while PAD mispredictions send
 * the access around again.
 *
 * Composed over the shared TagArrayEngine: the PAD is the PadPredictor
 * of cache/way_filter.hh; probe() charges the misprediction cycle as a
 * hit penalty and the rest is the standard set-associative fill.
 */

#ifndef BSIM_ALT_PARTIAL_MATCH_CACHE_HH
#define BSIM_ALT_PARTIAL_MATCH_CACHE_HH

#include "cache/replacement.hh"
#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class PartialMatchCache : public TagArrayEngine<PartialMatchCache>
{
  public:
    /**
     * @param partial_bits width of the partial tag compared first
     *        (the paper's example uses ~5 bits)
     */
    PartialMatchCache(std::string name, const CacheGeometry &geom,
                      Cycles hit_latency, MemLevel *next,
                      unsigned partial_bits = 5,
                      ReplPolicyKind repl = ReplPolicyKind::LRU);

    void reset() override;

    bool contains(Addr addr) const override;

    unsigned partialBits() const { return partialBits_; }
    /** Hits that needed the second cycle (PAD picked another way). */
    std::uint64_t slowHits() const { return slowHits_; }
    /** Accesses where >1 way matched the partial tag. */
    std::uint64_t padAliases() const { return padAliases_; }

  private:
    friend class TagArrayEngine<PartialMatchCache>;

    /** Engine probe result: set/tag plus the confirmed hit way. */
    struct Probe : ProbeBase
    {
        std::size_t set = 0;
        std::size_t way = 0;
        Addr tag = 0;
    };

    // Engine hooks (see cache/tag_array_engine.hh); always
    // write-back/write-allocate.
    Probe probe(const MemAccess &req, EngineMode mode);
    void onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
               bool set_dirty);
    std::size_t victimFrame(const Probe &pr, const MemAccess &req,
                            EngineMode mode);
    void install(std::size_t frame, const Probe &pr, const MemAccess &req,
                 EngineMode mode);

    Addr partialOf(Addr tag) const { return tag & mask(partialBits_); }

    TagStore tags_; ///< keyed by geometry tag
    Replacement repl_;
    unsigned partialBits_;
    std::uint64_t slowHits_ = 0;
    std::uint64_t padAliases_ = 0;
};

/** Engine compiled once, in partial_match_cache.cc, next to the hooks. */
extern template class TagArrayEngine<PartialMatchCache>;

} // namespace bsim

#endif // BSIM_ALT_PARTIAL_MATCH_CACHE_HH
