#include "alt/skewed_assoc_cache.hh"

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

SkewedAssocCache::SkewedAssocCache(std::string name,
                                   const CacheGeometry &geom,
                                   Cycles hit_latency, MemLevel *next)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      tags_(geom.numLines(), geom.offsetBits()),
      lastUse_(geom.numLines(), 0)
{
    bsim_assert(geom.ways() == 2, "skewed cache modelled with two banks");
}

std::size_t
SkewedAssocCache::bankIndex(unsigned bank, Addr addr) const
{
    return skewBankIndex(geom_, bank, addr);
}

SkewedAssocCache::Probe
SkewedAssocCache::probe(const MemAccess &req, EngineMode)
{
    Probe pr;
    pr.block = geom_.blockNumber(req.addr);
    pr.f0 = skewBankIndex(geom_, 0, req.addr);
    pr.f1 = geom_.numSets() + skewBankIndex(geom_, 1, req.addr);
    for (std::size_t f : {pr.f0, pr.f1}) {
        if (tags_.key(f) == pr.block) {
            pr.hit = true;
            pr.frame = f;
            break;
        }
    }
    return pr;
}

void
SkewedAssocCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                        bool set_dirty)
{
    if (set_dirty)
        tags_.setDirty(pr.frame);
    lastUse_[pr.frame] = ++now_;
}

std::size_t
SkewedAssocCache::victimFrame(const Probe &pr, const MemAccess &,
                              EngineMode)
{
    // Victim is the least recently used of the two bank candidates
    // (an empty one first).
    std::size_t v;
    if (!tags_.valid(pr.f0))
        v = pr.f0;
    else if (!tags_.valid(pr.f1))
        v = pr.f1;
    else
        v = lastUse_[pr.f0] <= lastUse_[pr.f1] ? pr.f0 : pr.f1;

    if (tags_.dirty(v))
        writebackToNext(tags_.key(v) << geom_.offsetBits());
    return v;
}

void
SkewedAssocCache::install(std::size_t frame, const Probe &pr,
                          const MemAccess &req, EngineMode)
{
    tags_.fill(frame, pr.block, req.type == AccessType::Write);
    lastUse_[frame] = ++now_;
}

void
SkewedAssocCache::reset()
{
    tags_.reset();
    lastUse_.assign(geom_.numLines(), 0);
    now_ = 0;
    resetBase(geom_.numLines());
}

bool
SkewedAssocCache::contains(Addr addr) const
{
    const Addr block = geom_.blockNumber(addr);
    return tags_.key(skewBankIndex(geom_, 0, addr)) == block ||
           tags_.key(geom_.numSets() + skewBankIndex(geom_, 1, addr)) ==
               block;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<SkewedAssocCache>;

} // namespace bsim
