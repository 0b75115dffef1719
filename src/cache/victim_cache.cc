#include "cache/victim_cache.hh"

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

VictimCache::VictimCache(std::string name, const CacheGeometry &geom,
                         Cycles hit_latency, MemLevel *next,
                         std::size_t victim_entries)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      main_(geom.numLines(), geom.offsetBits()),
      buffer_(victim_entries, geom.offsetBits()),
      bufRepl_(ReplPolicyKind::LRU, 1, victim_entries)
{
    bsim_assert(geom.ways() == 1,
                "victim cache main array must be direct mapped");
    bsim_assert(victim_entries > 0);
}

int
VictimCache::findBuffer(Addr block) const
{
    return buffer_.find(0, buffer_.size(), block);
}

void
VictimCache::insertVictim(Addr block, bool dirty)
{
    const std::size_t slot = buffer_.fillWay(0, buffer_.size(), bufRepl_, 0);
    if (buffer_.dirty(slot))
        writebackToNext(buffer_.key(slot) << geom_.offsetBits());
    buffer_.fill(slot, block, dirty);
    bufRepl_.fill(0, slot);
}

VictimCache::Probe
VictimCache::probe(const MemAccess &req, EngineMode mode)
{
    Probe pr;
    pr.set = moduloIndex(geom_, req.addr);
    pr.block = geom_.blockNumber(req.addr);
    if (main_.key(pr.set) == pr.block) {
        pr.hit = true;
        pr.frame = pr.set;
        return pr;
    }
    probeBuffer(pr, mode);
    return pr;
}

void
VictimCache::probeBuffer(Probe &pr, EngineMode mode)
{
    // Main-array miss: probe the victim buffer. On the demand path that
    // is a sequential probe costing one extra cycle (buffer hit or not).
    if (mode == EngineMode::Demand) {
        ++victimProbes_;
        pr.penalty = 1;
    }
    pr.buf = findBuffer(pr.block);
    if (pr.buf >= 0) {
        // Victim-buffer hits avoid the next-level access; the paper's
        // miss-rate metric counts them as hits.
        pr.hit = true;
        pr.frame = pr.set;
        if (mode == EngineMode::Demand)
            ++victimHits_;
    }
}

void
VictimCache::onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
                   bool set_dirty)
{
    if (pr.buf < 0) {
        // Plain main-array hit.
        if (set_dirty)
            main_.setDirty(pr.set);
        return;
    }

    const auto b = static_cast<std::size_t>(pr.buf);
    if (mode == EngineMode::Writeback) {
        // A dirty block arriving from above merely dirties the buffered
        // copy; no swap (the access did not go through the main array).
        buffer_.setDirty(b);
        bufRepl_.touch(0, b);
        return;
    }

    // Demand buffer hit: swap the buffer entry with the conflicting
    // main-array block.
    const bool old_valid = main_.valid(pr.set);
    const Addr old_block = main_.key(pr.set);
    const bool old_dirty = main_.dirty(pr.set);

    main_.fill(pr.set, pr.block,
               buffer_.dirty(b) || req.type == AccessType::Write);
    if (old_valid) {
        buffer_.fill(b, old_block, old_dirty);
        bufRepl_.touch(0, b);
    } else {
        buffer_.clear(b);
    }
}

std::size_t
VictimCache::victimFrame(const Probe &pr, const MemAccess &, EngineMode)
{
    // Full miss: the old main block moves to the buffer (which writes
    // back the buffer entry it displaces, if dirty).
    if (main_.valid(pr.set))
        insertVictim(main_.key(pr.set), main_.dirty(pr.set));
    return pr.set;
}

void
VictimCache::install(std::size_t frame, const Probe &pr,
                     const MemAccess &req, EngineMode)
{
    main_.fill(frame, pr.block, req.type == AccessType::Write);
}

VictimCache::BatchCtx
VictimCache::makeBatchContext()
{
    // Hoisted once per batch: geometry fields.
    return {geom_.offsetBits(),
            geom_.indexBits(),
            hitLatency(),
            usage_.data(),
            lineObserver()};
}

bool
VictimCache::tryFastHit(BatchCtx &ctx, const MemAccess &req,
                        BatchTagStatsSink &sink, AccessOutcome &out,
                        Probe &pr)
{
    // Main-array hits resolve inline: the direct-mapped array has no
    // replacement state, so a hit only sets the dirty bit. A main-array
    // miss probes the buffer here and hands the probe to the engine's
    // shared core, which runs the swap or the miss.
    const std::size_t set = bitsRange(req.addr, ctx.offsetBits,
                                      ctx.indexBits);
    const Addr block = req.addr >> ctx.offsetBits;
    if (main_.key(set) != block) {
        pr = {};
        pr.set = set;
        pr.block = block;
        probeBuffer(pr, EngineMode::Demand);
        return false;
    }
    if (req.type == AccessType::Write)
        main_.setDirty(set);
    sink.access(req.type, true);
    ++ctx.usage[set].hits;
    if (ctx.obs)
        ctx.obs->onLineAccess(set, true);
    out = {true, ctx.hitLat};
    return true;
}

void
VictimCache::reset()
{
    main_.reset();
    buffer_.reset();
    bufRepl_.reset();
    victimHits_ = victimProbes_ = 0;
    resetBase(geom_.numLines());
}

bool
VictimCache::mainContains(Addr addr) const
{
    return main_.key(geom_.index(addr)) == geom_.blockNumber(addr);
}

bool
VictimCache::bufferContains(Addr addr) const
{
    return findBuffer(geom_.blockNumber(addr)) >= 0;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<VictimCache>;

} // namespace bsim
