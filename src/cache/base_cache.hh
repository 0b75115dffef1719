/**
 * @file
 * Common machinery shared by every cache organisation in the repo:
 * geometry, next-level plumbing, statistics and per-set usage tracking.
 */

#ifndef BSIM_CACHE_BASE_CACHE_HH
#define BSIM_CACHE_BASE_CACHE_HH

#include <string>

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
    const SetUsageTracker &setUsage() const { return usageTracker_; }

    /**
     * Attach (or detach with nullptr) the observer (per-line accesses +
     * the engine's miss-path hook set; see cache/cache_observer.hh).
     * Hits reach it through the pointer the batched fast paths already
     * hoist, so observation adds no per-hit work. One slot: a cache
     * carries either a stats observer or a drowsy estimator, not both.
     * -DBSIM_NO_OBSERVE compiles out only the miss-path hooks.
     */
    void setCacheObserver(CacheObserver *obs) { observer_ = obs; }

    /** The attached observer, or nullptr (batched paths hoist it). */
    CacheObserver *cacheObserver() const { return observer_; }

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
    Cycles refillFromNext(const MemAccess &req);

    /** Send a dirty victim down. */
    void writebackToNext(Addr block_addr);

    /** Update aggregate + per-line counters. */
    void record(AccessType type, bool hit, std::size_t physical_line);

    /**
     * Per-line bookkeeping only (usage tracker + observer), for the
     * batched access path which gathers the aggregate counters in a
     * BatchStatsAccumulator and flushes them once per batch.
     */
    void
    recordLineOnly(std::size_t physical_line, bool hit)
    {
        usageTracker_.record(physical_line, hit);
        if (observer_)
            observer_->onLineAccess(physical_line, hit);
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

    /**
     * Update aggregate counters only. For accesses that touch no physical
     * line (no-write-allocate misses that merely forward the store): they
     * must not be attributed to an arbitrary line, or the per-set usage
     * behind the Table 7 balance classification is skewed.
     */
    void record(AccessType type, bool hit);

    /** Reset stats/usage; derived classes call from their reset(). */
    void resetBase(std::size_t num_lines);

    CacheGeometry geom_;
    CacheStats stats_;
    SetUsageTracker usageTracker_;

  private:
    std::string name_;
    Cycles hitLatency_;
    MemLevel *next_;
    CacheObserver *observer_ = nullptr;
};

} // namespace bsim

#endif // BSIM_CACHE_BASE_CACHE_HH
