/**
 * @file
 * XOR-mapped direct-mapped cache: index = set bits XOR a tag slice (a
 * classic "indexing optimization"). The paper explicitly scopes this
 * out ("indexing optimization [11] is out of the range of this paper",
 * Section 3.2) but it is the natural static alternative to the
 * B-Cache's dynamic remapping, so the related-work bench includes it:
 * XOR mapping spreads power-of-two strides but cannot adapt when the
 * hashed working set still collides — no replacement choice exists.
 *
 * Composed over the shared TagArrayEngine with the xorFoldIndex mapping
 * from cache/index_function.hh; the variant itself is only the
 * direct-mapped probe/install hooks.
 */

#ifndef BSIM_ALT_XOR_INDEX_CACHE_HH
#define BSIM_ALT_XOR_INDEX_CACHE_HH

#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class XorIndexCache : public TagArrayEngine<XorIndexCache>
{
  public:
    XorIndexCache(std::string name, const CacheGeometry &geom,
                  Cycles hit_latency, MemLevel *next);

    void reset() override;

    bool contains(Addr addr) const override;

    /** The hashed index function (exposed for tests). */
    std::size_t hashedIndex(Addr addr) const;

  private:
    friend class TagArrayEngine<XorIndexCache>;

    /** Engine probe result: hashed frame and the full block number. */
    struct Probe : ProbeBase
    {
        Addr block = 0;
        std::size_t idx = 0;
    };

    // Engine hooks (see cache/tag_array_engine.hh); always
    // write-back/write-allocate, so no write-policy trait.
    Probe probe(const MemAccess &req, EngineMode mode);
    void onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
               bool set_dirty);
    std::size_t victimFrame(const Probe &pr, const MemAccess &req,
                            EngineMode mode);
    void install(std::size_t frame, const Probe &pr, const MemAccess &req,
                 EngineMode mode);

    TagStore tags_; ///< keyed by full block number (addr >> offsetBits)
};

/** Engine compiled once, in xor_index_cache.cc, next to the hooks. */
extern template class TagArrayEngine<XorIndexCache>;

} // namespace bsim

#endif // BSIM_ALT_XOR_INDEX_CACHE_HH
