#include "alt/way_halting_cache.hh"

#include "cache/index_function.hh"
#include "cache/way_filter.hh"
#include "common/logging.hh"

namespace bsim {

WayHaltingCache::WayHaltingCache(std::string name,
                                 const CacheGeometry &geom,
                                 Cycles hit_latency, MemLevel *next,
                                 unsigned halt_bits,
                                 ReplPolicyKind repl)
    : TagArrayEngine(std::move(name), geom, hit_latency, next),
      lines_(geom.numLines()),
      repl_(repl, geom.numSets(), geom.ways()), haltBits_(halt_bits)
{
    bsim_assert(geom.ways() >= 2, "way halting filters multiple ways");
    bsim_assert(halt_bits >= 1 && halt_bits < 30);
}

WayHaltingCache::Probe
WayHaltingCache::probe(const MemAccess &req, EngineMode mode)
{
    Probe pr;
    pr.set = moduloIndex(geom_, req.addr);
    pr.tag = geom_.tag(req.addr);
    const Line *row = lines_.data() + pr.set * geom_.ways();

    int w;
    if (mode == EngineMode::Demand) {
        // The halt-tag comparison decides which ways even wake up; the
        // filter's counters feed the energy metric.
        w = scanWays(row, geom_.ways(), pr.tag,
                     HaltTagFilter(haltOf(pr.tag), haltBits_, haltedWays_,
                                   activatedWays_));
    } else {
        // Writebacks from above are not array activations.
        w = scanWays(row, geom_.ways(), pr.tag, AllWays{});
    }
    if (w >= 0) {
        pr.hit = true;
        pr.way = static_cast<std::size_t>(w);
        pr.frame = pr.set * geom_.ways() + pr.way;
    }
    return pr;
}

void
WayHaltingCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                       bool set_dirty)
{
    if (set_dirty)
        lines_[pr.frame].dirty = true;
    repl_.touch(pr.set, pr.way);
}

std::size_t
WayHaltingCache::victimFrame(const Probe &pr, const MemAccess &,
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
WayHaltingCache::install(std::size_t frame, const Probe &pr,
                         const MemAccess &req, EngineMode)
{
    Line &l = lines_[frame];
    l.valid = true;
    l.dirty = (req.type == AccessType::Write);
    l.tag = pr.tag;
    repl_.fill(pr.set, frame - pr.set * geom_.ways());
}

void
WayHaltingCache::reset()
{
    lines_.assign(geom_.numLines(), Line{});
    repl_.reset();
    haltedWays_ = 0;
    activatedWays_ = 0;
    resetBase(geom_.numLines());
}

bool
WayHaltingCache::contains(Addr addr) const
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
template class TagArrayEngine<WayHaltingCache>;

} // namespace bsim
