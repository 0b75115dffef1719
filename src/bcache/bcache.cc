#include "bcache/bcache.hh"

#include <bit>

#include "cache/index_function.hh"
#include "common/logging.hh"

namespace bsim {

BCache::BCache(std::string name, const BCacheParams &params,
               Cycles hit_latency, MemLevel *next)
    : TagArrayEngine(std::move(name), bcacheArrayGeometry(params),
                     hit_latency, next),
      params_(params), layout_(deriveLayout(params)),
      piMask_(mask(layout_.piBits)), lines_(geom_.numLines()),
      pdPatterns_(geom_.numLines(), kNoPattern),
      repl_(makeReplacementPolicy(params.repl, params.replSeed))
{
    bsim_assert(piMask_ != kNoPattern,
                "PI cannot span the whole address word");
    repl_->reset(layout_.groups, layout_.bas);
}

std::size_t
BCache::groupOf(Addr addr) const
{
    return bcacheGroupIndex(geom_, layout_.npiBits, addr);
}

Addr
BCache::upperOf(Addr addr) const
{
    return bcacheUpperField(geom_, layout_.npiBits, addr);
}

int
BCache::pdMatch(std::size_t group, Addr pattern) const
{
    // Decode step over the SoA pattern mirror: invalid lines hold
    // kNoPattern which never equals a real pattern, so this is exactly
    // "valid && pattern matches" without touching the Line structs.
    const Addr *p = pdPatterns_.data() + group * layout_.bas;
    for (std::size_t w = 0; w < layout_.bas; ++w)
        if (p[w] == pattern)
            return static_cast<int>(w);
    return -1;
}

BCache::Probe
BCache::probe(const MemAccess &req, EngineMode)
{
    Probe pr;
    pr.group = groupOf(req.addr);
    pr.upper = upperOf(req.addr);
    pr.pattern = pdPattern(pr.upper);
    pr.pdWay = pdMatch(pr.group, pr.pattern);
    if (pr.pdWay >= 0 &&
        lineAt(pr.group, static_cast<std::size_t>(pr.pdWay)).upper ==
            pr.upper) {
        // PD hit and full tag match: a one-cycle cache hit.
        pr.hit = true;
        pr.frame = pr.group * layout_.bas +
                   static_cast<std::size_t>(pr.pdWay);
    }
    return pr;
}

void
BCache::onHit(const Probe &pr, const MemAccess &, EngineMode mode,
              bool set_dirty)
{
    if (mode == EngineMode::Demand)
        lastOutcome_ = PdOutcome::HitAndCacheHit;
    if (set_dirty)
        lines_[pr.frame].dirty = true;
    repl_->touch(pr.group, static_cast<std::size_t>(pr.pdWay));
}

void
BCache::onMissClassified(const Probe &pr, EngineMode mode)
{
    // PD statistics are a demand-path taxonomy; writebacks from above
    // are not accesses and leave them (and lastOutcome_) untouched.
    if (mode != EngineMode::Demand)
        return;
    if (pr.pdWay >= 0) {
        lastOutcome_ = PdOutcome::HitButCacheMiss;
        ++pdStats_.pdHitCacheMiss;
    } else {
        // PD miss: the cache miss is predetermined before any tag or
        // data array is read.
        lastOutcome_ = PdOutcome::Miss;
        ++pdStats_.pdMiss;
    }
}

std::size_t
BCache::victimFrame(const Probe &pr, const MemAccess &, EngineMode)
{
    std::size_t way;
    if (pr.pdWay >= 0) {
        // PD hit but the tag differs: replacing any line other than the
        // activated one would leave two lines decoding the same pattern,
        // so the activated line itself must be the victim (Section 2.3).
        way = static_cast<std::size_t>(pr.pdWay);
    } else {
        // PD miss: the victim may be any line of the group, chosen by
        // the replacement policy; install() reprograms its PD entry.
        way = chooseFillWay(lines_.data() + pr.group * layout_.bas,
                            layout_.bas, *repl_, pr.group);
    }
    Line &l = lineAt(pr.group, way);
    if (l.valid && l.dirty) {
        const Addr victim_block =
            (l.upper << layout_.npiBits | pr.group) << geom_.offsetBits();
        writebackToNext(victim_block);
    }
    return pr.group * layout_.bas + way;
}

void
BCache::install(std::size_t frame, const Probe &pr, const MemAccess &req,
                EngineMode)
{
    Line &l = lines_[frame];
    // Decoder churn telemetry: rewriting a *programmed* entry to a new
    // pattern is a PD reprogram (the PD-hit-but-tag-miss path reuses the
    // pattern unchanged and cold programming of an invalid entry is not
    // churn, so neither fires the hook).
    if (pdPatterns_[frame] != pr.pattern &&
        pdPatterns_[frame] != kNoPattern)
        observeDecoderReprogram(pr.group);
    l.valid = true;
    l.dirty = params_.writePolicy == WritePolicy::WriteBackAllocate &&
              req.type == AccessType::Write;
    l.upper = pr.upper;
    pdPatterns_[frame] = pr.pattern;
    repl_->fill(pr.group, frame - pr.group * layout_.bas);
}

BCache::BatchCtx
BCache::makeBatchContext()
{
    // Hoisted once per batch: layout fields, the SoA pattern array, and
    // the replacement update devirtualized (LRU is the default policy;
    // touchFast is a single inlinable store).
    return {pdPatterns_.data(),
            lines_.data(),
            layout_.bas,
            geom_.offsetBits(),
            layout_.npiBits,
            piMask_,
            hitLatency(),
            params_.writePolicy == WritePolicy::WriteBackAllocate,
            dynamic_cast<LruPolicy *>(repl_.get()),
            usageTracker_.rawUsage(),
            lineObserver()};
}

bool
BCache::tryFastHit(BatchCtx &ctx, const MemAccess &req,
                   BatchTagStatsSink &sink, AccessOutcome &out)
{
    // Hits resolve entirely inline against the hoisted layout fields and
    // SoA pattern array. Everything else (misses, write-through stores)
    // runs through the engine's shared run() core, so state mutations
    // and next-level traffic are identical access by access.
    ctx.lastFast = false;
    const std::size_t group = bitsRange(req.addr, ctx.offsetBits,
                                        ctx.npiBits);
    const Addr upper = req.addr >> (ctx.offsetBits + ctx.npiBits);
    const Addr pattern = upper & ctx.piMask;

    const Addr *const gp = ctx.pats + group * ctx.bas;
    std::size_t pd_way = ctx.bas;
    for (std::size_t w = 0; w < ctx.bas; ++w) {
        if (gp[w] == pattern) {
            pd_way = w;
            break;
        }
    }
    if (pd_way == ctx.bas)
        return false;
    Line &l = ctx.lines[group * ctx.bas + pd_way];
    const bool write = req.type == AccessType::Write;
    if (l.upper != upper || (write && !ctx.writeBack))
        return false;

    if (write)
        l.dirty = true;
    if (ctx.lru)
        ctx.lru->touchFast(group, pd_way);
    else
        repl_->touch(group, pd_way);
    sink.access(req.type, true);
    SetUsage &u = ctx.usage[group * ctx.bas + pd_way];
    ++u.accesses;
    ++u.hits;
    if (ctx.obs)
        ctx.obs->onLineAccess(group * ctx.bas + pd_way, true);
    out = {true, ctx.hitLat};
    ctx.lastFast = true;
    return true;
}

void
BCache::finishBatch(BatchCtx &ctx)
{
    if (ctx.lastFast)
        lastOutcome_ = PdOutcome::HitAndCacheHit;
}

void
BCache::reset()
{
    lines_.assign(geom_.numLines(), Line{});
    pdPatterns_.assign(geom_.numLines(), kNoPattern);
    repl_->reset(layout_.groups, layout_.bas);
    pdStats_.reset();
    lastOutcome_ = PdOutcome::Miss;
    resetBase(geom_.numLines());
}

bool
BCache::contains(Addr addr) const
{
    const std::size_t group = groupOf(addr);
    const Addr upper = upperOf(addr);
    const int pd_way = pdMatch(group, pdPattern(upper));
    if (pd_way < 0)
        return false;
    return lineAt(group, static_cast<std::size_t>(pd_way)).upper == upper;
}

PdOutcome
BCache::classify(Addr addr) const
{
    const std::size_t group = groupOf(addr);
    const Addr upper = upperOf(addr);
    const int pd_way = pdMatch(group, pdPattern(upper));
    if (pd_way < 0)
        return PdOutcome::Miss;
    return lineAt(group, static_cast<std::size_t>(pd_way)).upper == upper
               ? PdOutcome::HitAndCacheHit
               : PdOutcome::HitButCacheMiss;
}

bool
BCache::checkUniqueDecoding() const
{
    for (std::size_t g = 0; g < layout_.groups; ++g)
        if (!checkUniqueDecoding(g))
            return false;
    return true;
}

bool
BCache::checkUniqueDecoding(std::size_t group) const
{
    // O(BAS^2) pairwise compare: BAS is small (<= a few dozen) and this
    // runs after every access in the differential fuzzer, so avoiding a
    // hash-set allocation matters.
    for (std::size_t w = 0; w < layout_.bas; ++w) {
        const Line &a = lineAt(group, w);
        if (!a.valid)
            continue;
        for (std::size_t v = w + 1; v < layout_.bas; ++v) {
            const Line &b = lineAt(group, v);
            if (b.valid && pdPattern(a.upper) == pdPattern(b.upper))
                return false;
        }
    }
    return true;
}

void
BCache::debugCorruptPd(std::size_t group, std::size_t way, Addr pattern)
{
    bsim_assert(group < layout_.groups && way < layout_.bas);
    Line &l = lineAt(group, way);
    l.valid = true;
    l.upper = (l.upper & ~piMask_) | (pattern & piMask_);
    syncPdPattern(group, way);
}

std::size_t
BCache::validLines() const
{
    std::size_t n = 0;
    for (const auto &l : lines_)
        n += l.valid ? 1 : 0;
    return n;
}

std::vector<std::uint32_t>
BCache::groupOccupancy() const
{
    std::vector<std::uint32_t> occ(layout_.groups, 0);
    for (std::size_t g = 0; g < layout_.groups; ++g)
        for (std::size_t w = 0; w < layout_.bas; ++w)
            occ[g] += lineAt(g, w).valid ? 1 : 0;
    return occ;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<BCache>;

} // namespace bsim
