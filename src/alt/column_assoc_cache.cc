#include "alt/column_assoc_cache.hh"

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

ColumnAssocCache::ColumnAssocCache(std::string name,
                                   const CacheGeometry &geom,
                                   Cycles hit_latency, MemLevel *next,
                                   Cycles rehash_penalty)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      tags_(geom.numLines(), geom.offsetBits()),
      rehashed_(geom.numLines(), 0), rehashPenalty_(rehash_penalty)
{
    bsim_assert(geom.ways() == 1,
                "column-associative cache is a direct-mapped array");
    bsim_assert(geom.indexBits() >= 1,
                "need at least two sets for the rehash function");
}

std::size_t
ColumnAssocCache::primaryIndex(Addr addr) const
{
    return moduloIndex(geom_, addr);
}

std::size_t
ColumnAssocCache::rehashIndex(std::size_t primary) const
{
    return columnRehashIndex(geom_, primary);
}

void
ColumnAssocCache::evict(std::size_t idx)
{
    if (tags_.dirty(idx))
        writebackToNext(tags_.key(idx) << geom_.offsetBits());
    tags_.clear(idx);
    rehashed_[idx] = 0;
}

ColumnAssocCache::Probe
ColumnAssocCache::probe(const MemAccess &req, EngineMode mode)
{
    Probe pr;
    pr.block = geom_.blockNumber(req.addr);
    pr.i1 = primaryIndex(req.addr);
    pr.i2 = rehashIndex(pr.i1);

    if (mode == EngineMode::Writeback) {
        // Writebacks from above just find the resident copy (either
        // location) or allocate at the primary slot; no swaps, no
        // first/rehash accounting.
        for (std::size_t idx : {pr.i1, pr.i2}) {
            if (tags_.key(idx) == pr.block) {
                pr.hit = true;
                pr.frame = idx;
                pr.kase = Case::WbHit;
                return pr;
            }
        }
        pr.kase = Case::WbMiss;
        return pr;
    }

    if (tags_.key(pr.i1) == pr.block) {
        ++firstHits_;
        pr.hit = true;
        pr.frame = pr.i1;
        pr.kase = Case::FirstHit;
        return pr;
    }

    if (tags_.valid(pr.i1) && rehashed_[pr.i1]) {
        // The resident block lives here as someone else's rehash target;
        // rehashed blocks are evicted first and no second probe is made
        // (the requested block's rehash slot is this very line).
        pr.kase = Case::EvictRehashed;
        return pr;
    }

    if (tags_.key(pr.i2) == pr.block) {
        // Second-time hit: costs the rehash probe and swaps the block
        // back to its primary slot (onHit).
        ++rehashHits_;
        pr.hit = true;
        pr.frame = pr.i1; // the block's location after the swap
        pr.penalty = rehashPenalty_;
        pr.kase = Case::RehashHit;
        return pr;
    }

    pr.penalty = rehashPenalty_;
    pr.kase = Case::DoubleMiss;
    return pr;
}

void
ColumnAssocCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                        bool set_dirty)
{
    if (pr.kase == Case::RehashHit) {
        // Swap so the block returns to its primary slot; the displaced
        // primary occupant becomes a rehashed resident of i2.
        tags_.swap(pr.i1, pr.i2);
        rehashed_[pr.i1] = 0;
        rehashed_[pr.i2] = tags_.valid(pr.i2);
    }
    if (set_dirty)
        tags_.setDirty(pr.frame);
}

std::size_t
ColumnAssocCache::victimFrame(const Probe &pr, const MemAccess &,
                              EngineMode)
{
    switch (pr.kase) {
      case Case::EvictRehashed:
        evict(pr.i1);
        break;
      case Case::DoubleMiss:
        // New block takes the primary slot; the old primary occupant is
        // demoted to the rehash slot, evicting what was there.
        evict(pr.i2);
        if (tags_.valid(pr.i1)) {
            tags_.fill(pr.i2, tags_.key(pr.i1), tags_.dirty(pr.i1));
            rehashed_[pr.i2] = 1;
        }
        break;
      case Case::WbMiss:
        // Same demotion, but an empty primary slot claims no rehash
        // space (the incoming block allocates in place).
        if (tags_.valid(pr.i1)) {
            evict(pr.i2);
            tags_.fill(pr.i2, tags_.key(pr.i1), tags_.dirty(pr.i1));
            rehashed_[pr.i2] = 1;
        }
        break;
      default:
        break;
    }
    return pr.i1;
}

void
ColumnAssocCache::install(std::size_t frame, const Probe &pr,
                          const MemAccess &req, EngineMode)
{
    tags_.fill(frame, pr.block, req.type == AccessType::Write);
    rehashed_[frame] = 0;
}

void
ColumnAssocCache::reset()
{
    tags_.reset();
    rehashed_.assign(geom_.numLines(), 0);
    rehashHits_ = firstHits_ = 0;
    resetBase(geom_.numLines());
}

bool
ColumnAssocCache::contains(Addr addr) const
{
    const Addr block = geom_.blockNumber(addr);
    const std::size_t i1 = geom_.index(addr);
    const std::size_t i2 = columnRehashIndex(geom_, i1);
    return tags_.key(i1) == block || tags_.key(i2) == block;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<ColumnAssocCache>;

} // namespace bsim
