/**
 * @file
 * Common machinery shared by every cache organisation in the repo:
 * geometry, next-level plumbing, statistics and per-set usage tracking.
 */

#ifndef BSIM_CACHE_BASE_CACHE_HH
#define BSIM_CACHE_BASE_CACHE_HH

#include <span>
#include <string>
#include <vector>

#include "cache/cache_observer.hh"
#include "cache/cache_stats.hh"
#include "mem/geometry.hh"
#include "mem/mem_level.hh"

namespace bsim {

/**
 * Base class for all cache organisations (set-associative, victim,
 * B-Cache, column-associative, skewed, HAC).
 *
 * Write policy throughout the repo is write-back + write-allocate, matching
 * the SimpleScalar configuration the paper uses.
 */
class BaseCache : public MemLevel
{
  public:
    /**
     * @param name instance name used in reports
     * @param geom size/line/way geometry
     * @param hit_latency cycles for a hit at this level
     * @param next next level (not owned); may be null for a cache that is
     *             measured standalone (misses then cost only hit_latency)
     */
    BaseCache(std::string name, const CacheGeometry &geom,
              Cycles hit_latency, MemLevel *next);

    std::string name() const override { return name_; }
    const CacheGeometry &geometry() const { return geom_; }
    Cycles hitLatency() const { return hitLatency_; }

    MemLevel *nextLevel() const { return next_; }
    void setNextLevel(MemLevel *next) { next_ = next; }

    const CacheStats &stats() const { return stats_; }

    /**
     * Per-line hit/miss histogram, indexed by physical line: the one
     * per-set count in the simulator (Table 7, the stats document's
     * perSet). Always on; accesses that touch no line are not counted.
     */
    std::span<const SetUsage> setUsage() const { return usage_; }

    /**
     * Attach (or detach with nullptr) the observer (per-line accesses +
     * the engine's miss-path hook set; see cache/cache_observer.hh).
     * Per-line accesses go through a second pointer, set only when
     * @p obs consumes them, so an observer that ignores them costs no
     * per-hit work; one that consumes them costs a virtual call per
     * line-touching access. One slot: a cache carries either a stats
     * observer or a drowsy estimator, not both. -DBSIM_NO_OBSERVE
     * compiles out only the miss-path hooks.
     */
    void
    setCacheObserver(CacheObserver *obs)
    {
        observer_ = obs;
        lineObserver_ = obs && obs->consumesLineAccess() ? obs : nullptr;
    }

    /**
     * The attached observer if it consumes per-line accesses, else
     * nullptr (the batched fast paths hoist it once per batch).
     */
    CacheObserver *lineObserver() const { return lineObserver_; }

    /** Miss rate over all access types. */
    double missRate() const { return stats_.missRate(); }

    /**
     * True if the block containing @p addr is resident at this level.
     * Must be side-effect free (no replacement-state or counter updates):
     * the verify/ oracles probe residency between accesses.
     */
    virtual bool contains(Addr addr) const = 0;

  protected:
    /**
     * Fetch the block for @p req from the next level after a miss.
     * Returns the added latency (0 when standalone).
     */
    Cycles
    refillFromNext(const MemAccess &req)
    {
        ++stats_.refills;
        if (!next_)
            return 0;
        // The refill is always a read of the whole block, even on a
        // write miss (write-allocate fetches the line first).
        return next_->access({geom_.blockAlign(req.addr), AccessType::Read})
            .latency;
    }

    /** Send a dirty victim down. */
    void
    writebackToNext(Addr block_addr)
    {
        ++stats_.writebacks;
        if constexpr (kObserversEnabled)
            if (observer_)
                observer_->onWriteback();
        if (next_)
            next_->writeback(block_addr);
    }

    /**
     * Per-line bookkeeping (usage histogram + the line observer, if
     * any). The aggregate counters go through the engine's stats sinks
     * instead.
     */
    void
    recordLineOnly(std::size_t physical_line, bool hit)
    {
        SetUsage &u = usage_[physical_line];
        if (hit)
            ++u.hits;
        else
            ++u.misses;
        if (lineObserver_)
            lineObserver_->onLineAccess(physical_line, hit);
    }

    /**
     * Miss-path observer notifications (cache/cache_observer.hh). All
     * compile to nothing under -DBSIM_NO_OBSERVE; otherwise one
     * predictable null check when no observer is attached. Kept out of
     * the hit path entirely — hits report via recordLineOnly().
     */
    void
    observeInstall(std::size_t physical_line)
    {
        if constexpr (kObserversEnabled)
            if (observer_)
                observer_->onInstall(physical_line);
    }

    void
    observeDecoderReprogram(std::size_t group)
    {
        if constexpr (kObserversEnabled)
            if (observer_)
                observer_->onDecoderReprogram(group);
    }

    /** Reset stats/usage; derived classes call from their reset(). */
    void resetBase(std::size_t num_lines);

    CacheGeometry geom_;
    CacheStats stats_;
    std::vector<SetUsage> usage_; ///< one per physical line

  private:
    std::string name_;
    Cycles hitLatency_;
    MemLevel *next_;
    CacheObserver *observer_ = nullptr;
    /** observer_ if it consumes onLineAccess, else nullptr. */
    CacheObserver *lineObserver_ = nullptr;
};

} // namespace bsim

#endif // BSIM_CACHE_BASE_CACHE_HH
