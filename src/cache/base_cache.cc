#include "cache/base_cache.hh"

namespace bsim {

BaseCache::BaseCache(std::string name, const CacheGeometry &geom,
                     Cycles hit_latency, MemLevel *next)
    : geom_(geom), name_(std::move(name)), hitLatency_(hit_latency),
      next_(next)
{
    usageTracker_.reset(geom_.numLines());
}

Cycles
BaseCache::refillFromNext(const MemAccess &req)
{
    ++stats_.refills;
    if (!next_)
        return 0;
    // The refill is always a read of the whole block, even on a write miss
    // (write-allocate fetches the line first).
    MemAccess fill{geom_.blockAlign(req.addr), AccessType::Read};
    return next_->access(fill).latency;
}

void
BaseCache::writebackToNext(Addr block_addr)
{
    ++stats_.writebacks;
    if constexpr (kObserversEnabled)
        if (observer_)
            observer_->onWriteback();
    if (next_)
        next_->writeback(block_addr);
}

void
BaseCache::record(AccessType type, bool hit, std::size_t physical_line)
{
    stats_.recordAccess(type, hit);
    recordLineOnly(physical_line, hit);
}

void
BaseCache::record(AccessType type, bool hit)
{
    stats_.recordAccess(type, hit);
}

void
BaseCache::resetBase(std::size_t num_lines)
{
    stats_.reset();
    usageTracker_.reset(num_lines);
}

} // namespace bsim
