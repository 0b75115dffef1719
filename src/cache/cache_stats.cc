#include "cache/cache_stats.hh"

#include "common/strings.hh"

namespace bsim {

void
CacheStats::recordAccess(AccessType type, bool hit)
{
    ++accesses;
    if (hit)
        ++hits;
    else
        ++misses;
    ++typeAccesses_[idx(type)];
    typeMisses_[idx(type)] += hit ? 0 : 1;
}

CacheStats &
CacheStats::operator+=(const CacheStats &other)
{
    // Tripwire for new counters: growing CacheStats without extending
    // this merge (and the round-trip test in tests/test_observe.cc)
    // fails the build here instead of silently dropping the field from
    // sharded totals.
    static_assert(sizeof(CacheStats) == 12 * sizeof(std::uint64_t),
                  "CacheStats gained a field: add it to operator+= and "
                  "to the merge round-trip test");
    accesses += other.accesses;
    hits += other.hits;
    misses += other.misses;
    writebacks += other.writebacks;
    writethroughs += other.writethroughs;
    refills += other.refills;
    for (std::size_t t = 0; t < 3; ++t) {
        typeAccesses_[t] += other.typeAccesses_[t];
        typeMisses_[t] += other.typeMisses_[t];
    }
    return *this;
}

void
CacheStats::reset()
{
    *this = CacheStats{};
}

std::string
CacheStats::toString() const
{
    return strprintf(
        "accesses=%llu hits=%llu misses=%llu missRate=%.4f "
        "writebacks=%llu refills=%llu",
        static_cast<unsigned long long>(accesses),
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses), missRate(),
        static_cast<unsigned long long>(writebacks),
        static_cast<unsigned long long>(refills));
}

} // namespace bsim
