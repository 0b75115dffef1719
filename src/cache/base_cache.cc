#include "cache/base_cache.hh"

namespace bsim {

BaseCache::BaseCache(std::string name, const CacheGeometry &geom,
                     Cycles hit_latency, MemLevel *next)
    : geom_(geom), name_(std::move(name)), hitLatency_(hit_latency),
      next_(next)
{
    usage_.assign(geom_.numLines(), SetUsage{});
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
BaseCache::resetBase(std::size_t num_lines)
{
    stats_.reset();
    usage_.assign(num_lines, SetUsage{});
}

} // namespace bsim
