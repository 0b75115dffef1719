/**
 * @file
 * Column-associative cache (Agarwal & Pudar), one of the direct-mapped
 * conflict-miss techniques the paper compares against (Section 7.1).
 *
 * A direct-mapped array with two hashing functions: the primary index
 * b(x) and the rehash index f(x) = b(x) with the most significant index
 * bit flipped. Each line carries a rehash bit marking blocks stored at
 * their alternate location. First-time hits take one cycle; rehash hits
 * take extra cycles and swap the block back to its primary location.
 *
 * Composed over the shared TagArrayEngine with the columnRehashIndex
 * mapping from cache/index_function.hh: probe() classifies the access
 * into the protocol's cases, onHit() performs the rehash swap, and
 * victimFrame() the demotion of the primary occupant.
 */

#ifndef BSIM_ALT_COLUMN_ASSOC_CACHE_HH
#define BSIM_ALT_COLUMN_ASSOC_CACHE_HH

#include <vector>

#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class ColumnAssocCache : public TagArrayEngine<ColumnAssocCache>
{
  public:
    ColumnAssocCache(std::string name, const CacheGeometry &geom,
                     Cycles hit_latency, MemLevel *next,
                     Cycles rehash_penalty = 1);

    void reset() override;

    /** Hits found at the rehash location (cost extra cycles). */
    std::uint64_t rehashHits() const { return rehashHits_; }
    /** First-probe hits (single cycle). */
    std::uint64_t firstHits() const { return firstHits_; }

    bool contains(Addr addr) const override;

  private:
    friend class TagArrayEngine<ColumnAssocCache>;

    /** The protocol case the probe resolved to. */
    enum class Case : std::uint8_t {
        FirstHit,      ///< hit at the primary location (one cycle)
        RehashHit,     ///< hit at the rehash location (swap back)
        EvictRehashed, ///< primary holds a rehashed stranger: evict it,
                       ///< no second probe (its rehash slot is this line)
        DoubleMiss,    ///< miss at both locations: demote the primary
        WbHit,         ///< writeback from above found the block resident
        WbMiss,        ///< writeback from above allocates at the primary
    };

    /** Engine probe result: both indices and the resolved case. */
    struct Probe : ProbeBase
    {
        Addr block = 0;
        std::size_t i1 = 0;
        std::size_t i2 = 0;
        Case kase = Case::DoubleMiss;
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

    std::size_t primaryIndex(Addr addr) const;
    std::size_t rehashIndex(std::size_t primary) const;
    void evict(std::size_t idx);

    TagStore tags_; ///< keyed by full block number (addr >> offsetBits)
    /** Per frame: the block sits at its rehash location. */
    std::vector<std::uint8_t> rehashed_;
    Cycles rehashPenalty_;
    std::uint64_t rehashHits_ = 0;
    std::uint64_t firstHits_ = 0;
};

/** Engine compiled once, in column_assoc_cache.cc, next to the hooks. */
extern template class TagArrayEngine<ColumnAssocCache>;

} // namespace bsim

#endif // BSIM_ALT_COLUMN_ASSOC_CACHE_HH
