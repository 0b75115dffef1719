#include "alt/partial_match_cache.hh"

#include "cache/index_function.hh"
#include "cache/way_filter.hh"
#include "common/logging.hh"

namespace bsim {

PartialMatchCache::PartialMatchCache(std::string name,
                                     const CacheGeometry &geom,
                                     Cycles hit_latency, MemLevel *next,
                                     unsigned partial_bits,
                                     ReplPolicyKind repl)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      tags_(geom.numLines(), geom.offsetBits() + geom.indexBits()),
      repl_(repl, geom.numSets(), geom.ways()), partialBits_(partial_bits)
{
    bsim_assert(geom.ways() >= 2,
                "way prediction needs a set-associative cache");
    bsim_assert(partial_bits >= 1 && partial_bits < 30);
}

PartialMatchCache::Probe
PartialMatchCache::probe(const MemAccess &req, EngineMode mode)
{
    Probe pr;
    pr.set = moduloIndex(geom_, req.addr);
    pr.tag = geom_.tag(req.addr);
    const std::size_t first = pr.set * geom_.ways();

    if (mode == EngineMode::Writeback) {
        // Writebacks from above bypass the PAD speculation machinery.
        const int w = tags_.find(first, geom_.ways(), pr.tag);
        if (w >= 0) {
            pr.hit = true;
            pr.way = static_cast<std::size_t>(w);
            pr.frame = first + pr.way;
        }
        return pr;
    }

    // Stage 1: the PAD comparison predicts the first partial match while
    // the Main Directory confirms the full tag in parallel.
    PadPredictor pad(partialOf(pr.tag), partialBits_);
    const int w = tags_.find(first, geom_.ways(), pr.tag, pad);
    if (pad.matches() > 1)
        ++padAliases_;

    if (w >= 0) {
        pr.hit = true;
        pr.way = static_cast<std::size_t>(w);
        pr.frame = first + pr.way;
        // The predicted way was read speculatively; if it was not the
        // right one, a second cycle fetches the correct way.
        if (pad.predicted() != w) {
            ++slowHits_;
            pr.penalty = 1;
        }
    }
    // A wrong PAD prediction on a miss still burned the speculative read
    // (energy), but the miss path latency is the usual one.
    return pr;
}

void
PartialMatchCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                         bool set_dirty)
{
    if (set_dirty)
        tags_.setDirty(pr.frame);
    repl_.touch(pr.set, pr.way);
}

std::size_t
PartialMatchCache::victimFrame(const Probe &pr, const MemAccess &,
                               EngineMode)
{
    const std::size_t first = pr.set * geom_.ways();
    const std::size_t frame =
        first + tags_.fillWay(first, geom_.ways(), repl_, pr.set);
    if (tags_.dirty(frame))
        writebackToNext(geom_.rebuild(tags_.key(frame), pr.set));
    return frame;
}

void
PartialMatchCache::install(std::size_t frame, const Probe &pr,
                           const MemAccess &req, EngineMode)
{
    tags_.fill(frame, pr.tag, req.type == AccessType::Write);
    repl_.fill(pr.set, frame - pr.set * geom_.ways());
}

void
PartialMatchCache::reset()
{
    tags_.reset();
    repl_.reset();
    slowHits_ = 0;
    padAliases_ = 0;
    resetBase(geom_.numLines());
}

bool
PartialMatchCache::contains(Addr addr) const
{
    return tags_.find(geom_.index(addr) * geom_.ways(), geom_.ways(),
                      geom_.tag(addr)) >= 0;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<PartialMatchCache>;

} // namespace bsim
