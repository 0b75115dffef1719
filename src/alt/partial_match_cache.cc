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
      lines_(geom.numLines()),
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
    const Line *row = lines_.data() + pr.set * geom_.ways();

    if (mode == EngineMode::Writeback) {
        // Writebacks from above bypass the PAD speculation machinery.
        const int w = scanWays(row, geom_.ways(), pr.tag, AllWays{});
        if (w >= 0) {
            pr.hit = true;
            pr.way = static_cast<std::size_t>(w);
            pr.frame = pr.set * geom_.ways() + pr.way;
        }
        return pr;
    }

    // Stage 1: the PAD comparison predicts the first partial match while
    // the Main Directory confirms the full tag in parallel.
    PadPredictor pad(partialOf(pr.tag), partialBits_);
    const int w = scanWays(row, geom_.ways(), pr.tag, pad);
    if (pad.matches() > 1)
        ++padAliases_;

    if (w >= 0) {
        pr.hit = true;
        pr.way = static_cast<std::size_t>(w);
        pr.frame = pr.set * geom_.ways() + pr.way;
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
        lines_[pr.frame].dirty = true;
    repl_.touch(pr.set, pr.way);
}

std::size_t
PartialMatchCache::victimFrame(const Probe &pr, const MemAccess &,
                               EngineMode)
{
    const std::size_t way =
        chooseFillWay(lines_.data() + pr.set * geom_.ways(), repl_, pr.set);
    Line &l = lineAt(pr.set, way);
    if (l.valid && l.dirty)
        writebackToNext(geom_.rebuild(l.tag, pr.set));
    return pr.set * geom_.ways() + way;
}

void
PartialMatchCache::install(std::size_t frame, const Probe &pr,
                           const MemAccess &req, EngineMode)
{
    Line &l = lines_[frame];
    l.valid = true;
    l.dirty = (req.type == AccessType::Write);
    l.tag = pr.tag;
    repl_.fill(pr.set, frame - pr.set * geom_.ways());
}

void
PartialMatchCache::reset()
{
    lines_.assign(geom_.numLines(), Line{});
    repl_.reset();
    slowHits_ = 0;
    padAliases_ = 0;
    resetBase(geom_.numLines());
}

bool
PartialMatchCache::contains(Addr addr) const
{
    const std::size_t set = geom_.index(addr);
    const Addr tag = geom_.tag(addr);
    for (std::size_t w = 0; w < geom_.ways(); ++w) {
        const Line &l = lines_[set * geom_.ways() + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<PartialMatchCache>;

} // namespace bsim
