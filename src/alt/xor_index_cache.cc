#include "alt/xor_index_cache.hh"

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

XorIndexCache::XorIndexCache(std::string name, const CacheGeometry &geom,
                             Cycles hit_latency, MemLevel *next)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      tags_(geom.numLines(), geom.offsetBits())
{
    bsim_assert(geom.ways() == 1, "XOR-mapped cache is direct mapped");
}

std::size_t
XorIndexCache::hashedIndex(Addr addr) const
{
    return xorFoldIndex(geom_, addr);
}

XorIndexCache::Probe
XorIndexCache::probe(const MemAccess &req, EngineMode)
{
    Probe pr;
    pr.block = geom_.blockNumber(req.addr);
    pr.idx = xorFoldIndex(geom_, req.addr);
    if (tags_.key(pr.idx) == pr.block) {
        pr.hit = true;
        pr.frame = pr.idx;
    }
    return pr;
}

void
XorIndexCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                     bool set_dirty)
{
    if (set_dirty)
        tags_.setDirty(pr.frame);
}

std::size_t
XorIndexCache::victimFrame(const Probe &pr, const MemAccess &, EngineMode)
{
    if (tags_.dirty(pr.idx))
        writebackToNext(tags_.key(pr.idx) << geom_.offsetBits());
    return pr.idx;
}

void
XorIndexCache::install(std::size_t frame, const Probe &pr,
                       const MemAccess &req, EngineMode)
{
    tags_.fill(frame, pr.block, req.type == AccessType::Write);
}

void
XorIndexCache::reset()
{
    tags_.reset();
    resetBase(geom_.numLines());
}

bool
XorIndexCache::contains(Addr addr) const
{
    return tags_.key(xorFoldIndex(geom_, addr)) == geom_.blockNumber(addr);
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<XorIndexCache>;

} // namespace bsim
