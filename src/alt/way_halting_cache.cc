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
      tags_(geom.numLines(), geom.offsetBits() + geom.indexBits()),
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
    const std::size_t first = pr.set * geom_.ways();

    int w;
    if (mode == EngineMode::Demand) {
        // The halt-tag comparison decides which ways even wake up; the
        // filter's counters feed the energy metric.
        w = tags_.find(first, geom_.ways(), pr.tag,
                       HaltTagFilter(haltOf(pr.tag), haltBits_,
                                     haltedWays_, activatedWays_));
    } else {
        // Writebacks from above are not array activations.
        w = tags_.find(first, geom_.ways(), pr.tag);
    }
    if (w >= 0) {
        pr.hit = true;
        pr.way = static_cast<std::size_t>(w);
        pr.frame = first + pr.way;
    }
    return pr;
}

void
WayHaltingCache::onHit(const Probe &pr, const MemAccess &, EngineMode,
                       bool set_dirty)
{
    if (set_dirty)
        tags_.setDirty(pr.frame);
    repl_.touch(pr.set, pr.way);
}

std::size_t
WayHaltingCache::victimFrame(const Probe &pr, const MemAccess &,
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
WayHaltingCache::install(std::size_t frame, const Probe &pr,
                         const MemAccess &req, EngineMode)
{
    tags_.fill(frame, pr.tag, req.type == AccessType::Write);
    repl_.fill(pr.set, frame - pr.set * geom_.ways());
}

void
WayHaltingCache::reset()
{
    tags_.reset();
    repl_.reset();
    haltedWays_ = 0;
    activatedWays_ = 0;
    resetBase(geom_.numLines());
}

bool
WayHaltingCache::contains(Addr addr) const
{
    return tags_.find(geom_.index(addr) * geom_.ways(), geom_.ways(),
                      geom_.tag(addr)) >= 0;
}

// Emit the engine here, next to the hook definitions (see the extern
// template declaration in the header).
template class TagArrayEngine<WayHaltingCache>;

} // namespace bsim
