/**
 * @file
 * Direct-mapped cache augmented with a small fully-associative victim
 * buffer (Jouppi-style), the paper's main point of comparison (victim16).
 *
 * The buffer is probed sequentially after a main-array miss, so victim hits
 * cost one extra cycle (Section 2.1 of the paper); a buffer hit swaps the
 * buffered block with the conflicting main-array block.
 *
 * Composed over the shared TagArrayEngine: the main array uses the
 * modulo index function; the buffer probe and the swap/insert dance live
 * in the probe/onHit/victimFrame hooks. The engine supplies
 * access()/accessBatch()/writeback(). The batched path resolves
 * main-array hits inline (tryFastHit); on a main-array miss it probes
 * the buffer with the same probeBuffer() step as probe(), and swaps and
 * misses go through the same hooks as every other entry point, so
 * victim-buffer behaviour cannot drift between them.
 */

#ifndef BSIM_CACHE_VICTIM_CACHE_HH
#define BSIM_CACHE_VICTIM_CACHE_HH

#include "cache/replacement.hh"
#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class VictimCache : public TagArrayEngine<VictimCache>
{
  public:
    /**
     * @param geom geometry of the direct-mapped main array (ways must be 1)
     * @param victim_entries number of fully-associative buffer entries
     */
    VictimCache(std::string name, const CacheGeometry &geom,
                Cycles hit_latency, MemLevel *next,
                std::size_t victim_entries = 16);

    void reset() override;

    std::size_t victimEntries() const { return buffer_.size(); }
    /** Hits served out of the victim buffer (one extra cycle each). */
    std::uint64_t victimHits() const { return victimHits_; }
    /** Buffer probes (every main-array miss). */
    std::uint64_t victimProbes() const { return victimProbes_; }

    bool mainContains(Addr addr) const;
    bool bufferContains(Addr addr) const;

    /** Resident in either the main array or the victim buffer. */
    bool contains(Addr addr) const override
    {
        return mainContains(addr) || bufferContains(addr);
    }

  private:
    friend class TagArrayEngine<VictimCache>;

    /** Engine probe result: main set, block number, any buffer hit. */
    struct Probe : ProbeBase
    {
        std::size_t set = 0;
        Addr block = 0;
        int buf = -1; ///< buffer entry holding the block, or -1
    };

    /** Hoisted fields of the batched fast hit path (one per batch). */
    struct BatchCtx
    {
        unsigned offsetBits;
        unsigned indexBits;
        Cycles hitLat;
        SetUsage *usage;
        CacheObserver *obs;
    };

    // Engine hooks (see cache/tag_array_engine.hh). No write policy:
    // the victim cache is always write-back/write-allocate.
    Probe probe(const MemAccess &req, EngineMode mode);
    void onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
               bool set_dirty);
    std::size_t victimFrame(const Probe &pr, const MemAccess &req,
                            EngineMode mode);
    void install(std::size_t frame, const Probe &pr, const MemAccess &req,
                 EngineMode mode);

    BatchCtx makeBatchContext();
    bool tryFastHit(BatchCtx &ctx, const MemAccess &req,
                    BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr);

    /** The probe's second step, after a main-array miss in @p pr.set. */
    void probeBuffer(Probe &pr, EngineMode mode);
    /** Buffer entry holding block number @p block, or -1. */
    int findBuffer(Addr block) const;
    /** Insert a block evicted from the main array into the buffer. */
    void insertVictim(Addr block, bool dirty);

    /** Both keyed by block number, so a swap moves keys unchanged. */
    TagStore main_;   ///< the direct-mapped array
    TagStore buffer_; ///< one fully associative row
    /**
     * 1 x entries LRU over the buffer: an insert is a fill, a swap or a
     * writeback hit is a touch.
     */
    Replacement bufRepl_;
    std::uint64_t victimHits_ = 0;
    std::uint64_t victimProbes_ = 0;
};

/** Engine compiled once, in victim_cache.cc, next to the hooks. */
extern template class TagArrayEngine<VictimCache>;

} // namespace bsim

#endif // BSIM_CACHE_VICTIM_CACHE_HH
