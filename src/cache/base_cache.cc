#include "cache/base_cache.hh"

namespace bsim {

BaseCache::BaseCache(std::string name, const CacheGeometry &geom,
                     Cycles hit_latency, MemLevel *next)
    : geom_(geom), name_(std::move(name)), hitLatency_(hit_latency),
      next_(next)
{
    usage_.assign(geom_.numLines(), SetUsage{});
}

void
BaseCache::resetBase(std::size_t num_lines)
{
    stats_.reset();
    usage_.assign(num_lines, SetUsage{});
}

} // namespace bsim
