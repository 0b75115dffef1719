/**
 * @file
 * Per-cache statistics, including the per-set usage counters that drive the
 * paper's Table 7 balance evaluation.
 */

#ifndef BSIM_CACHE_CACHE_STATS_HH
#define BSIM_CACHE_CACHE_STATS_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "mem/access.hh"

namespace bsim {

/** Aggregate counters for one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /** Dirty blocks written back to the next level. */
    std::uint64_t writebacks = 0;
    /** Stores forwarded to the next level (write-through mode). */
    std::uint64_t writethroughs = 0;
    /** Blocks refilled from the next level. */
    std::uint64_t refills = 0;

    // Per-type breakdown, stored as AccessType-indexed arrays so the
    // merge below and the batched accumulator can treat them uniformly.
    std::uint64_t readAccesses() const { return typeAccess(AccessType::Read); }
    std::uint64_t readMisses() const { return typeMiss(AccessType::Read); }
    std::uint64_t writeAccesses() const { return typeAccess(AccessType::Write); }
    std::uint64_t writeMisses() const { return typeMiss(AccessType::Write); }
    std::uint64_t fetchAccesses() const { return typeAccess(AccessType::Fetch); }
    std::uint64_t fetchMisses() const { return typeMiss(AccessType::Fetch); }

    std::uint64_t typeAccess(AccessType t) const { return typeAccesses_[idx(t)]; }
    std::uint64_t typeMiss(AccessType t) const { return typeMisses_[idx(t)]; }

    void recordAccess(AccessType type, bool hit);
    void reset();

    /**
     * Field-wise merge — THE single source of truth for combining two
     * counter sets (sharded-replay totals in sim/trace_replay.cc, the
     * batched accumulator flush below). Every counter lives here once;
     * a sizeof static_assert in cache_stats.cc plus the round-trip test
     * in tests/test_observe.cc make sure a newly added field cannot be
     * silently dropped from merged totals.
     */
    CacheStats &operator+=(const CacheStats &other);

    double missRate() const { return safeRatio(double(misses),
                                               double(accesses)); }
    double hitRate() const { return safeRatio(double(hits),
                                              double(accesses)); }

    std::string toString() const;

  private:
    friend class BatchStatsAccumulator;

    static constexpr std::size_t
    idx(AccessType t)
    {
        return static_cast<std::size_t>(t);
    }

    std::uint64_t typeAccesses_[3] = {0, 0, 0};
    std::uint64_t typeMisses_[3] = {0, 0, 0};
};

/**
 * Register-friendly accumulator for the batched access path: the per-type
 * counters of CacheStats::recordAccess gathered locally and flushed into
 * the cache's CacheStats once per batch. The flushed result is exactly
 * what per-access recordAccess calls would have produced.
 */
class BatchStatsAccumulator
{
  public:
    void
    record(AccessType type, bool hit)
    {
        const auto t = static_cast<std::size_t>(type);
        ++typeAccesses_[t];
        typeMisses_[t] += hit ? 0 : 1;
    }

    /** Add the accumulated counts into @p s and reset. */
    void
    flushInto(CacheStats &s)
    {
        // Materialize the delta as a CacheStats and merge through
        // operator+= so this flush can never drift from the shard-merge
        // path: both add every field, or neither compiles.
        CacheStats d;
        d.accesses =
            typeAccesses_[0] + typeAccesses_[1] + typeAccesses_[2];
        d.misses = typeMisses_[0] + typeMisses_[1] + typeMisses_[2];
        d.hits = d.accesses - d.misses;
        for (std::size_t t = 0; t < 3; ++t) {
            d.typeAccesses_[t] = typeAccesses_[t];
            d.typeMisses_[t] = typeMisses_[t];
        }
        s += d;
        *this = BatchStatsAccumulator{};
    }

  private:
    static constexpr std::size_t
    idx(AccessType t)
    {
        return static_cast<std::size_t>(t);
    }

    std::uint64_t typeAccesses_[3] = {0, 0, 0};
    std::uint64_t typeMisses_[3] = {0, 0, 0};
};

/**
 * Per-physical-line usage counters, the inputs of the Table 7
 * classification (bcache/balance.hh). Every cache keeps one per line,
 * always on (BaseCache::setUsage()); a line access is a hit or a miss,
 * so accesses() is derived rather than stored.
 */
struct SetUsage
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }

    bool operator==(const SetUsage &) const = default;
};

} // namespace bsim

#endif // BSIM_CACHE_CACHE_STATS_HH
