/**
 * @file
 * Way-halting set-associative cache (mentioned in Section 6.8 next to
 * the skewed cache): a small fully-parallel "halt tag" array holds the
 * low few tag bits of every way; ways whose halt tags mismatch the
 * address are not activated at all, saving their tag/data read energy.
 * Hit/miss behaviour is *identical* to the underlying set-associative
 * cache — way halting is purely an energy filter — which the tests
 * verify differentially.
 *
 * The B-Cache connection: both structures compare a low tag slice
 * before array activation, so both share the virtual-index workaround
 * for V/P-tagged caches (Section 6.8).
 *
 * Composed over the shared TagArrayEngine: the halt-tag CAM is the
 * HaltTagFilter of cache/way_filter.hh, so the variant is only the
 * modulo-indexed probe plus the standard set-associative fill hooks.
 */

#ifndef BSIM_ALT_WAY_HALTING_CACHE_HH
#define BSIM_ALT_WAY_HALTING_CACHE_HH

#include "cache/replacement.hh"
#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class WayHaltingCache : public TagArrayEngine<WayHaltingCache>
{
  public:
    /**
     * @param halt_bits width of the halt-tag slice (4 in the original
     *        way-halting proposal)
     */
    WayHaltingCache(std::string name, const CacheGeometry &geom,
                    Cycles hit_latency, MemLevel *next,
                    unsigned halt_bits = 4,
                    ReplPolicyKind repl = ReplPolicyKind::LRU);

    void reset() override;

    bool contains(Addr addr) const override;

    unsigned haltBits() const { return haltBits_; }
    /** Way activations that the halt tags suppressed. */
    std::uint64_t haltedWays() const { return haltedWays_; }
    /** Way activations that went ahead (halt tag matched). */
    std::uint64_t activatedWays() const { return activatedWays_; }
    /** Average ways activated per access (the energy win metric). */
    double avgActivatedWays() const
    {
        const std::uint64_t total = haltedWays_ + activatedWays_;
        return total ? double(activatedWays_) * geometry().ways() /
                           double(total)
                     : 0.0;
    }

  private:
    friend class TagArrayEngine<WayHaltingCache>;

    /** Engine probe result: set/tag plus the filtered hit way. */
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

    Addr haltOf(Addr tag) const { return tag & mask(haltBits_); }

    TagStore tags_; ///< keyed by geometry tag
    Replacement repl_;
    unsigned haltBits_;
    std::uint64_t haltedWays_ = 0;
    std::uint64_t activatedWays_ = 0;
};

/** Engine compiled once, in way_halting_cache.cc, next to the hooks. */
extern template class TagArrayEngine<WayHaltingCache>;

} // namespace bsim

#endif // BSIM_ALT_WAY_HALTING_CACHE_HH
