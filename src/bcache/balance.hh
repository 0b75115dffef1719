/**
 * @file
 * Set-usage balance analysis (Section 6.4 / Table 7 of the paper).
 *
 * A set is a *frequent-hit* set when its hits exceed twice the per-set
 * average, a *frequent-miss* set when its misses exceed twice the per-set
 * average, and a *less-accessed* set when its total accesses are below half
 * the per-set average.
 */

#ifndef BSIM_BCACHE_BALANCE_HH
#define BSIM_BCACHE_BALANCE_HH

#include <span>
#include <string>

#include "cache/cache_stats.hh"

namespace bsim {

/** Table 7 row: all values are percentages. */
struct BalanceReport
{
    double fhsPct = 0;  ///< frequent-hit sets, % of all sets
    double chPct = 0;   ///< % of all cache hits occurring in those sets
    double fmsPct = 0;  ///< frequent-miss sets, % of all sets
    double cmPct = 0;   ///< % of all cache misses occurring in those sets
    double lasPct = 0;  ///< less-accessed sets, % of all sets
    double tcaPct = 0;  ///< % of total cache accesses landing in them

    std::string toString() const;
};

/**
 * Compute the balance classification from per-line usage counters:
 * a cache's always-on histogram (BaseCache::setUsage()), or the copy of
 * it an observer report carries (merged across shards).
 */
BalanceReport analyzeBalance(std::span<const SetUsage> usage);

} // namespace bsim

#endif // BSIM_BCACHE_BALANCE_HH
