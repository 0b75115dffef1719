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
      piMask_(mask(layout_.piBits)),
      tags_(geom_.numLines(), geom_.offsetBits() + layout_.npiBits),
      pdPatterns_(geom_.numLines(), kNoPattern),
      repl_(params.repl, layout_.groups, layout_.bas, params.replSeed)
{
    bsim_assert(piMask_ != kNoPattern,
                "PI cannot span the whole address word");
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
    // Decode step over the pattern CAM: empty frames hold kNoPattern,
    // which never equals a real pattern, so this is exactly "occupied
    // && pattern matches" without touching the tag store. The CAM
    // compares every entry at once; the select picks the lowest
    // matching way, which only differs from "the" match after
    // debugCorruptPd broke unique decoding.
    return scanWays(pdPatterns_.data() + group * layout_.bas, layout_.bas,
                    pattern, AllWays{});
}

BCache::Probe
BCache::probe(const MemAccess &req, EngineMode)
{
    Probe pr;
    pr.group = groupOf(req.addr);
    pr.upper = upperOf(req.addr);
    pr.pattern = pdPattern(pr.upper);
    pr.pdWay = pdMatch(pr.group, pr.pattern);
    if (pr.pdWay < 0)
        return pr;
    const std::size_t frame =
        pr.group * layout_.bas + static_cast<std::size_t>(pr.pdWay);
    if (tags_.key(frame) == pr.upper) {
        // PD hit and full tag match: a one-cycle cache hit.
        pr.hit = true;
        pr.frame = frame;
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
        tags_.setDirty(pr.frame);
    repl_.touch(pr.group, static_cast<std::size_t>(pr.pdWay));
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
    const std::size_t first = pr.group * layout_.bas;
    std::size_t way;
    if (pr.pdWay >= 0) {
        // PD hit but the tag differs: replacing any line other than the
        // activated one would leave two lines decoding the same pattern,
        // so the activated line itself must be the victim (Section 2.3).
        way = static_cast<std::size_t>(pr.pdWay);
    } else {
        // PD miss: the victim may be any line of the group, chosen by
        // the replacement policy; install() reprograms its PD entry.
        way = tags_.fillWay(first, layout_.bas, repl_, pr.group);
    }
    const std::size_t frame = first + way;
    if (tags_.dirty(frame)) {
        const Addr victim_block =
            (tags_.key(frame) << layout_.npiBits | pr.group)
            << geom_.offsetBits();
        writebackToNext(victim_block);
    }
    return frame;
}

void
BCache::install(std::size_t frame, const Probe &pr, const MemAccess &req,
                EngineMode)
{
    // Decoder churn telemetry: rewriting a *programmed* entry to a new
    // pattern is a PD reprogram (the PD-hit-but-tag-miss path reuses the
    // pattern unchanged and cold programming of an invalid entry is not
    // churn, so neither fires the hook).
    if (pdPatterns_[frame] != pr.pattern &&
        pdPatterns_[frame] != kNoPattern)
        observeDecoderReprogram(pr.group);
    tags_.fill(frame, pr.upper,
               params_.writePolicy == WritePolicy::WriteBackAllocate &&
                   req.type == AccessType::Write);
    pdPatterns_[frame] = pr.pattern;
    repl_.fill(pr.group, frame - pr.group * layout_.bas);
}

BCache::BatchCtx
BCache::makeBatchContext()
{
    // Hoisted once per batch: layout fields and the pattern CAM.
    return {pdPatterns_.data(),
            layout_.bas,
            geom_.offsetBits(),
            layout_.npiBits,
            piMask_,
            hitLatency(),
            params_.writePolicy == WritePolicy::WriteBackAllocate,
            usage_.data(),
            lineObserver(),
            false,
            layout_.bas > 1 && memoPays()};
}

bool
BCache::tryFastHit(BatchCtx &ctx, const MemAccess &req,
                   BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr)
{
    return ctx.useMemo ? fastHit<true>(ctx, req, sink, out, pr)
                       : fastHit<false>(ctx, req, sink, out, pr);
}

template <bool kMemo>
bool
BCache::fastHit(BatchCtx &ctx, const MemAccess &req,
                BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr)
{
    // Hits resolve entirely inline against the hoisted layout fields and
    // pattern CAM. Everything else (misses, write-through stores) hands
    // its probe to the engine's shared core, so state mutations and
    // next-level traffic are identical access by access.
    ctx.lastFast = false;
    const Addr block = req.addr >> ctx.offsetBits;
    const std::size_t group = bitsRange(req.addr, ctx.offsetBits,
                                        ctx.npiBits);
    const Addr upper = block >> ctx.npiBits;
    int pd_way;
    bool hit;
    if (kMemo && block == ctx.memoBlock) {
        pd_way = ctx.memoWay;
        hit = true;
    } else {
        pd_way = scanWays(ctx.pats + group * ctx.bas, ctx.bas,
                          upper & ctx.piMask, AllWays{});
        hit = pd_way >= 0 &&
              tags_.key(group * ctx.bas +
                        static_cast<std::size_t>(pd_way)) == upper;
    }
    const std::size_t frame =
        group * ctx.bas + static_cast<std::size_t>(pd_way);
    const bool write = req.type == AccessType::Write;
    if (!hit || (write && !ctx.writeBack)) {
        if constexpr (kMemo)
            ctx.memoBlock = kEmptyKey;
        pr = {};
        pr.group = group;
        pr.upper = upper;
        pr.pattern = upper & ctx.piMask;
        pr.pdWay = pd_way;
        if (hit) {
            pr.hit = true;
            pr.frame = frame;
        }
        return false;
    }

    if (write)
        tags_.setDirty(frame);
    repl_.touch(group, static_cast<std::size_t>(pd_way));
    sink.access(req.type, true);
    ++ctx.usage[frame].hits;
    if (ctx.obs)
        ctx.obs->onLineAccess(frame, true);
    out = {true, ctx.hitLat};
    ctx.lastFast = true;
    if constexpr (kMemo) {
        ctx.memoBlock = block;
        ctx.memoWay = pd_way;
    }
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
    tags_.reset();
    pdPatterns_.assign(geom_.numLines(), kNoPattern);
    repl_.reset();
    pdStats_.reset();
    lastOutcome_ = PdOutcome::Miss;
    resetBase(geom_.numLines());
}

bool
BCache::contains(Addr addr) const
{
    return classify(addr) == PdOutcome::HitAndCacheHit;
}

PdOutcome
BCache::classify(Addr addr) const
{
    const std::size_t group = groupOf(addr);
    const Addr upper = upperOf(addr);
    const int pd_way = pdMatch(group, pdPattern(upper));
    if (pd_way < 0)
        return PdOutcome::Miss;
    return tags_.key(group * layout_.bas +
                     static_cast<std::size_t>(pd_way)) == upper
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
    const std::size_t first = group * layout_.bas;
    for (std::size_t w = first; w < first + layout_.bas; ++w) {
        if (!tags_.valid(w))
            continue;
        for (std::size_t v = w + 1; v < first + layout_.bas; ++v)
            if (tags_.valid(v) &&
                pdPattern(tags_.key(w)) == pdPattern(tags_.key(v)))
                return false;
    }
    return true;
}

void
BCache::debugCorruptPd(std::size_t group, std::size_t way, Addr pattern)
{
    bsim_assert(group < layout_.groups && way < layout_.bas);
    const std::size_t f = group * layout_.bas + way;
    const Addr upper = tags_.valid(f) ? tags_.key(f) : 0;
    tags_.fill(f, (upper & ~piMask_) | (pattern & piMask_), tags_.dirty(f));
    pdPatterns_[f] = pdPattern(tags_.key(f));
}

std::size_t
BCache::validLines() const
{
    return tags_.validCount();
}

std::vector<std::uint32_t>
BCache::groupOccupancy() const
{
    std::vector<std::uint32_t> occ(layout_.groups, 0);
    for (std::size_t g = 0; g < layout_.groups; ++g)
        for (std::size_t w = 0; w < layout_.bas; ++w)
            occ[g] += tags_.valid(g * layout_.bas + w) ? 1 : 0;
    return occ;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<BCache>;

} // namespace bsim
