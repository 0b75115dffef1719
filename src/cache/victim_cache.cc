#include "cache/victim_cache.hh"

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

VictimCache::VictimCache(std::string name, const CacheGeometry &geom,
                         Cycles hit_latency, MemLevel *next,
                         std::size_t victim_entries)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      main_(geom.numLines()), buffer_(victim_entries),
      bufRepl_(ReplPolicyKind::LRU, 1, victim_entries)
{
    bsim_assert(geom.ways() == 1,
                "victim cache main array must be direct mapped");
    bsim_assert(victim_entries > 0);
}

int
VictimCache::findBuffer(Addr block_addr) const
{
    for (std::size_t i = 0; i < buffer_.size(); ++i)
        if (buffer_[i].valid && buffer_[i].blockAddr == block_addr)
            return static_cast<int>(i);
    return -1;
}

void
VictimCache::insertVictim(Addr block_addr, bool dirty)
{
    const std::size_t slot = chooseFillWay(buffer_.data(), bufRepl_, 0);
    BufEntry &e = buffer_[slot];
    if (e.valid && e.dirty)
        writebackToNext(e.blockAddr);
    e.valid = true;
    e.dirty = dirty;
    e.blockAddr = block_addr;
    bufRepl_.fill(0, slot);
}

VictimCache::Probe
VictimCache::probe(const MemAccess &req, EngineMode mode)
{
    Probe pr;
    pr.set = moduloIndex(geom_, req.addr);
    pr.tag = geom_.tag(req.addr);
    const Line &l = main_[pr.set];
    if (l.valid && l.tag == pr.tag) {
        pr.hit = true;
        pr.frame = pr.set;
        return pr;
    }

    // Main-array miss: probe the victim buffer. On the demand path that
    // is a sequential probe costing one extra cycle (buffer hit or not).
    if (mode == EngineMode::Demand) {
        ++victimProbes_;
        pr.penalty = 1;
    }
    pr.buf = findBuffer(geom_.blockAlign(req.addr));
    if (pr.buf >= 0) {
        // Victim-buffer hits avoid the next-level access; the paper's
        // miss-rate metric counts them as hits.
        pr.hit = true;
        pr.frame = pr.set;
        if (mode == EngineMode::Demand)
            ++victimHits_;
    }
    return pr;
}

void
VictimCache::onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
                   bool set_dirty)
{
    Line &l = main_[pr.set];
    if (pr.buf < 0) {
        // Plain main-array hit.
        if (set_dirty)
            l.dirty = true;
        return;
    }

    BufEntry &e = buffer_[static_cast<std::size_t>(pr.buf)];
    if (mode == EngineMode::Writeback) {
        // A dirty block arriving from above merely dirties the buffered
        // copy; no swap (the access did not go through the main array).
        e.dirty = true;
        bufRepl_.touch(0, static_cast<std::size_t>(pr.buf));
        return;
    }

    // Demand buffer hit: swap the buffer entry with the conflicting
    // main-array block.
    const bool old_valid = l.valid;
    const Addr old_block = geom_.rebuild(l.tag, pr.set);
    const bool old_dirty = l.dirty;

    l.valid = true;
    l.tag = pr.tag;
    l.dirty = e.dirty || (req.type == AccessType::Write);

    if (old_valid) {
        e.valid = true;
        e.dirty = old_dirty;
        e.blockAddr = old_block;
        bufRepl_.touch(0, static_cast<std::size_t>(pr.buf));
    } else {
        e.valid = false;
    }
}

std::size_t
VictimCache::victimFrame(const Probe &pr, const MemAccess &, EngineMode)
{
    // Full miss: the old main block moves to the buffer (which writes
    // back the buffer entry it displaces, if dirty).
    const Line &l = main_[pr.set];
    if (l.valid)
        insertVictim(geom_.rebuild(l.tag, pr.set), l.dirty);
    return pr.set;
}

void
VictimCache::install(std::size_t frame, const Probe &pr,
                     const MemAccess &req, EngineMode)
{
    Line &l = main_[frame];
    l.valid = true;
    l.tag = pr.tag;
    l.dirty = (req.type == AccessType::Write);
}

VictimCache::BatchCtx
VictimCache::makeBatchContext()
{
    // Hoisted once per batch: geometry fields and the main array base.
    return {main_.data(),
            geom_.offsetBits(),
            geom_.indexBits(),
            hitLatency(),
            usage_.data(),
            lineObserver()};
}

bool
VictimCache::tryFastHit(BatchCtx &ctx, const MemAccess &req,
                        BatchTagStatsSink &sink, AccessOutcome &out)
{
    // Main-array hits resolve inline: the direct-mapped array has no
    // replacement state, so a hit only sets the dirty bit. Buffer
    // probes, swaps and misses run through the engine's run() core.
    const std::size_t set = bitsRange(req.addr, ctx.offsetBits,
                                      ctx.indexBits);
    Line &l = ctx.lines[set];
    if (!l.valid || l.tag != req.addr >> (ctx.offsetBits + ctx.indexBits))
        return false;
    if (req.type == AccessType::Write)
        l.dirty = true;
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
    main_.assign(geom_.numLines(), Line{});
    buffer_.assign(buffer_.size(), BufEntry{});
    bufRepl_.reset();
    victimHits_ = victimProbes_ = 0;
    resetBase(geom_.numLines());
}

bool
VictimCache::mainContains(Addr addr) const
{
    const Line &l = main_[geom_.index(addr)];
    return l.valid && l.tag == geom_.tag(addr);
}

bool
VictimCache::bufferContains(Addr addr) const
{
    return findBuffer(geom_.blockAlign(addr)) >= 0;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<VictimCache>;

} // namespace bsim
