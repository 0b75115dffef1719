#include "cache/set_assoc_cache.hh"

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geom,
                             Cycles hit_latency, MemLevel *next,
                             ReplPolicyKind repl, std::uint64_t repl_seed,
                             WritePolicy write_policy)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      tags_(geom.numLines(), geom.offsetBits() + geom.indexBits()),
      repl_(repl, geom.numSets(), geom.ways(), repl_seed),
      writePolicy_(write_policy)
{
}

int
SetAssocCache::findWay(std::size_t set, Addr tag) const
{
    return tags_.find(set * geom_.ways(), geom_.ways(), tag);
}

SetAssocCache::Probe
SetAssocCache::probe(const MemAccess &req, EngineMode)
{
    Probe pr;
    pr.set = moduloIndex(geom_, req.addr);
    pr.tag = geom_.tag(req.addr);
    const int w = findWay(pr.set, pr.tag);
    if (w >= 0) {
        pr.hit = true;
        pr.way = static_cast<std::size_t>(w);
        pr.frame = pr.set * geom_.ways() + pr.way;
    }
    return pr;
}

void
SetAssocCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                     bool set_dirty)
{
    if (set_dirty)
        tags_.setDirty(pr.frame);
    repl_.touch(pr.set, pr.way);
}

std::size_t
SetAssocCache::victimFrame(const Probe &pr, const MemAccess &, EngineMode)
{
    const std::size_t first = pr.set * geom_.ways();
    const std::size_t frame =
        first + tags_.fillWay(first, geom_.ways(), repl_, pr.set);
    if (tags_.dirty(frame))
        writebackToNext(geom_.rebuild(tags_.key(frame), pr.set));
    return frame;
}

void
SetAssocCache::install(std::size_t frame, const Probe &pr,
                       const MemAccess &req, EngineMode)
{
    tags_.fill(frame, pr.tag,
               !writeThroughPolicy() && req.type == AccessType::Write);
    repl_.fill(pr.set, frame - pr.set * geom_.ways());
}

SetAssocCache::BatchCtx
SetAssocCache::makeBatchContext()
{
    // Hoisted once per batch: geometry fields and the write policy.
    return {geom_.ways(),
            geom_.offsetBits(),
            geom_.indexBits(),
            hitLatency(),
            writeThroughPolicy(),
            usage_.data(),
            lineObserver(),
            geom_.ways() > 1 && memoPays()};
}

bool
SetAssocCache::tryFastHit(BatchCtx &ctx, const MemAccess &req,
                          BatchTagStatsSink &sink, AccessOutcome &out,
                          Probe &pr)
{
    return ctx.useMemo ? fastHit<true>(ctx, req, sink, out, pr)
                       : fastHit<false>(ctx, req, sink, out, pr);
}

template <bool kMemo>
bool
SetAssocCache::fastHit(BatchCtx &ctx, const MemAccess &req,
                       BatchTagStatsSink &sink, AccessOutcome &out,
                       Probe &pr)
{
    // Hits resolve entirely inline; anything that touches the next level
    // or mutates more than one line (misses, write-through stores) hands
    // its probe to the engine's shared core, so both paths perform the
    // same state mutations in the same order.
    const Addr block = req.addr >> ctx.offsetBits;
    const std::size_t set = bitsRange(req.addr, ctx.offsetBits,
                                      ctx.indexBits);
    const Addr tag = block >> ctx.indexBits;
    int way;
    if (kMemo && block == ctx.memoBlock)
        way = ctx.memoWay;
    else
        way = tags_.find(set * ctx.ways, ctx.ways, tag);
    const bool write = req.type == AccessType::Write;
    if (way < 0 || (write && ctx.writeThrough)) {
        if constexpr (kMemo)
            ctx.memoBlock = kEmptyKey;
        pr = {};
        pr.set = set;
        pr.tag = tag;
        if (way >= 0) {
            pr.hit = true;
            pr.way = static_cast<std::size_t>(way);
            pr.frame = set * ctx.ways + pr.way;
        }
        return false;
    }

    const std::size_t hit_way = static_cast<std::size_t>(way);
    const std::size_t frame = set * ctx.ways + hit_way;
    if (write)
        tags_.setDirty(frame);
    repl_.touch(set, hit_way);
    sink.access(req.type, true);
    ++ctx.usage[frame].hits;
    if (ctx.obs)
        ctx.obs->onLineAccess(frame, true);
    out = {true, ctx.hitLat};
    if constexpr (kMemo) {
        ctx.memoBlock = block;
        ctx.memoWay = way;
    }
    return true;
}

void
SetAssocCache::reset()
{
    tags_.reset();
    repl_.reset();
    resetBase(geom_.numLines());
}

bool
SetAssocCache::contains(Addr addr) const
{
    return probeWay(addr) >= 0;
}

int
SetAssocCache::probeWay(Addr addr) const
{
    return findWay(geom_.index(addr), geom_.tag(addr));
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<SetAssocCache>;

} // namespace bsim
