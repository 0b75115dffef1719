/**
 * @file
 * Two-way skewed-associative cache (Seznec), compared against in
 * Section 7.1: each bank is indexed by a different XOR-based hash of the
 * address, so blocks conflicting in one bank usually do not conflict in
 * the other, giving a 2-way skewed cache roughly 4-way behaviour.
 *
 * Composed over the shared TagArrayEngine with the skewBankIndex
 * mappings from cache/index_function.hh; the pseudo-LRU choice between
 * the two bank candidates lives in the victimFrame hook.
 */

#ifndef BSIM_ALT_SKEWED_ASSOC_CACHE_HH
#define BSIM_ALT_SKEWED_ASSOC_CACHE_HH

#include <vector>

#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class SkewedAssocCache : public TagArrayEngine<SkewedAssocCache>
{
  public:
    /**
     * @param geom total geometry; ways must be 2 (two skewed banks, each
     *             of numSets sets)
     */
    SkewedAssocCache(std::string name, const CacheGeometry &geom,
                     Cycles hit_latency, MemLevel *next);

    void reset() override;

    bool contains(Addr addr) const override;

    /** Bank index functions, exposed for tests. */
    std::size_t bankIndex(unsigned bank, Addr addr) const;

  private:
    friend class TagArrayEngine<SkewedAssocCache>;

    /** Engine probe result: both bank candidates and the block. */
    struct Probe : ProbeBase
    {
        Addr block = 0;
        std::size_t f0 = 0; ///< bank 0 candidate frame
        std::size_t f1 = 0; ///< bank 1 candidate frame
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

    /** Bank 0's sets, then bank 1's; keyed by full block number. */
    TagStore tags_;
    /** Per frame: tick of the last touch or fill (the victim choice). */
    std::vector<Tick> lastUse_;
    Tick now_ = 0;
};

/** Engine compiled once, in skewed_assoc_cache.cc, next to the hooks. */
extern template class TagArrayEngine<SkewedAssocCache>;

} // namespace bsim

#endif // BSIM_ALT_SKEWED_ASSOC_CACHE_HH
