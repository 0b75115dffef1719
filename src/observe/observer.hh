/**
 * @file
 * The standard observability collector behind `bsim --stats-json`,
 * `--heatmap` and `--interval` (docs/ARCHITECTURE.md, "Observability
 * layer"): a CacheObserver implementation that turns the engine's hook
 * stream into what the cache does not count itself:
 *
 *  - a per-line install histogram (evictions are installs after the
 *    first),
 *  - an interval time-series: windowed miss/writeback/PD-reprogram
 *    counts every N line-touching accesses,
 *  - B-Cache decoder telemetry: PD reprogram churn per NPI group and
 *    the decoder's unique-decoding occupancy (snapshotted by the
 *    runner at end of run).
 *
 * The per-line hit/miss histogram and the writeback total are the
 * cache's own always-on counters (BaseCache::setUsage(), CacheStats);
 * harvestObserver (sim/runner.hh) copies them into the report, together
 * with the derived balance metrics (max/mean set references,
 * coefficient of variation, Gini) — the measured imbalance the paper's
 * Section 1 / Table 7 argument rests on.
 *
 * Reports from independent runs over disjoint trace windows merge with
 * operator+= (counters add, interval series concatenate in shard
 * order), which is how sharded replay totals are built — see
 * docs/TRACES.md for the cold-start-per-shard semantics.
 */

#ifndef BSIM_OBSERVE_OBSERVER_HH
#define BSIM_OBSERVE_OBSERVER_HH

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_observer.hh"
#include "cache/cache_stats.hh"

namespace bsim {

/** Knobs for one StatsObserver (all collection is on when attached). */
struct ObserverConfig
{
    /** Attach an observer at all (the runners' master switch). */
    bool enabled = false;
    /**
     * Interval length in line-touching accesses; 0 disables the
     * time-series. No-write-allocate misses that forward the store
     * without touching a line do not advance the window (they carry no
     * set attribution — same rule the per-set usage counters follow).
     */
    std::uint64_t intervalLen = 0;

    auto operator<=>(const ObserverConfig &) const = default;
};

/** One window of the interval time-series. */
struct IntervalSample
{
    std::uint64_t accesses = 0; ///< line-touching accesses in the window
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t pdReprograms = 0;

    bool
    operator==(const IntervalSample &o) const
    {
        return accesses == o.accesses && misses == o.misses &&
               writebacks == o.writebacks &&
               pdReprograms == o.pdReprograms;
    }
};

/** Imbalance summary of a per-set access histogram. */
struct BalanceMetrics
{
    std::uint64_t maxRefs = 0; ///< references to the hottest set
    double meanRefs = 0;       ///< references per set, averaged
    double maxOverMean = 0;    ///< hot-set concentration (1.0 = flat)
    double cov = 0;            ///< coefficient of variation (sigma/mean)
    double gini = 0;           ///< Gini coefficient (0 = balanced)
};

/** Compute the imbalance summary of per-set reference counts. */
BalanceMetrics computeBalanceMetrics(std::span<const SetUsage> usage);

/** Everything a StatsObserver collected, in mergeable form. */
struct ObserverReport
{
    /** Per-line hit/miss counters: the cache's setUsage() at harvest. */
    std::vector<SetUsage> perSet;
    /** Installs per line; installs beyond a line's first are evictions. */
    std::vector<std::uint64_t> installs;
    /** Dirty writebacks over the whole run: CacheStats at harvest. */
    std::uint64_t writebacks = 0;
    /** PD reprograms over the whole run (B-Cache; 0 otherwise). */
    std::uint64_t pdReprograms = 0;

    /** Window length; 0 = no series collected. */
    std::uint64_t intervalLen = 0;
    /** Completed windows plus the trailing partial one (if nonempty). */
    std::vector<IntervalSample> intervals;

    /** PD reprogram churn per NPI group (empty for non-B-Cache runs). */
    std::vector<std::uint64_t> pdReprogramsPerGroup;
    /**
     * End-of-run unique-decoding occupancy per group (BCache
     * ::groupOccupancy snapshot; empty for non-B-Cache runs). Merging
     * takes the element-wise max — each shard starts cold, so the max
     * is the tightest end-state bound the merged view can offer.
     */
    std::vector<std::uint32_t> pdOccupancy;

    /** Evictions of line @p i: every install after the cold fill. */
    std::uint64_t
    evictions(std::size_t i) const
    {
        return installs[i] > 0 ? installs[i] - 1 : 0;
    }

    /** Imbalance summary of the per-set access histogram. */
    BalanceMetrics balanceMetrics() const
    {
        return computeBalanceMetrics(perSet);
    }

    /**
     * Merge another run's report (sharded replay: counters add
     * element-wise, interval series concatenate in shard order,
     * occupancy takes the element-wise max). Reports must come from the
     * same cache configuration; fatal on a per-set size mismatch.
     */
    ObserverReport &operator+=(const ObserverReport &other);
};

/**
 * The standard collector. Attach with BaseCache::setCacheObserver for
 * the duration of a run, then snapshot with report() (or, with the
 * cache's own counters filled in, sim/runner.hh's harvestObserver).
 * Install counters are sized up front; decoder telemetry grows lazily
 * with the groups that actually reprogram.
 */
class StatsObserver : public CacheObserver
{
  public:
    StatsObserver(std::size_t num_lines, const ObserverConfig &config);

    // CacheObserver hooks (cache/cache_observer.hh). Only the interval
    // series needs per-line accesses; the per-line histogram is the
    // cache's own.
    bool consumesLineAccess() const override
    {
        return config_.intervalLen > 0;
    }
    void onLineAccess(std::size_t line, bool hit) override;
    void onInstall(std::size_t line) override;
    void onWriteback() override;
    void onDecoderReprogram(std::size_t group) override;

    /**
     * Snapshot the collected counters; perSet and writebacks stay empty
     * (harvestObserver takes them from the cache). The trailing partial
     * interval is appended when it saw any accesses, so short runs
     * still produce a series; the observer itself keeps accumulating
     * (report() is side-effect free).
     */
    ObserverReport report() const;

  private:
    ObserverConfig config_;
    ObserverReport data_;
    IntervalSample window_;
};

} // namespace bsim

#endif // BSIM_OBSERVE_OBSERVER_HH
