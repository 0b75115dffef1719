/**
 * @file
 * The shared tag-array engine: one templated driver that owns the
 * lookup -> hit/miss -> victim -> fill -> stats/observer sequence for
 * every cache organisation in the repo.
 *
 * Layering (docs/ARCHITECTURE.md, "Tag-array engine & policy layers"):
 *
 *   TagStore        (cache/tag_store.hh)       what does each frame hold?
 *   IndexFunction   (cache/index_function.hh)  where may a block live?
 *   WayFilter       (cache/way_filter.hh)      which ways wake up?
 *   Replacement     (cache/replacement.hh)     which way is the victim?
 *   write policy    (mem/access.hh)            allocate or forward?
 *   TagArrayEngine  (this file)                sequencing + stats
 *
 * A concrete cache derives from TagArrayEngine<Itself> (CRTP: the hooks
 * dispatch statically, so the per-access path has no virtual calls
 * beyond the MemLevel entry point) and implements four hooks:
 *
 *   Probe probe(req, mode)            index + way filter; returns hit
 *                                     status, the physical frame and any
 *                                     extra hit-latency penalty
 *   void onHit(pr, req, mode, dirty)  touch replacement state, set the
 *                                     dirty bit, swap/promote lines
 *   size_t victimFrame(pr, req, mode) choose the frame to fill and write
 *                                     back every displaced dirty block
 *   void install(frame, pr, req, mode) write the new line's fields and
 *                                     report the fill to the policy
 *
 * The engine then provides access(), accessBatch() and writeback() for
 * free — including the batched hot path with its once-per-batch stats
 * accumulator — so scalar, batched and writeback-from-above behaviour
 * can never drift apart per variant. Optional hooks (all defaulted
 * here, hidden by a derived definition when wanted):
 *
 *   onMissClassified(pr, mode)        demand-miss taxonomy (B-Cache PD)
 *   makeBatchContext()/tryFastHit()/finishBatch()
 *                                     a tuned inline hit path for the
 *                                     batched loop (SetAssocCache,
 *                                     BCache and VictimCache have one).
 *                                     tryFastHit(ctx, req, sink, out, pr)
 *                                     either resolves a hit and returns
 *                                     true, or assigns @p pr exactly
 *                                     what probe(req, Demand) would
 *                                     return and returns false; the
 *                                     engine then finishes the access
 *                                     from that probe, so no access is
 *                                     decoded or scanned twice
 *
 * Two compile-time traits (defaulted false, hidden by the derived class
 * to opt in):
 *
 *   kHasWritePolicy        the variant honours WritePolicy and provides
 *                          writeThroughPolicy(); the engine then counts
 *                          writethroughs and forwards no-write-allocate
 *                          stores instead of installing
 *   kCountWritebackRefills writeback() bumps stats_.refills when it
 *                          installs a line (the L2-style accounting of
 *                          SetAssocCache/BCache)
 *
 * Observability (cache/cache_observer.hh, docs/ARCHITECTURE.md): the
 * engine is also the single notification point for an attached
 * CacheObserver. Per-line accesses go through BaseCache::lineObserver(),
 * which is null unless the observer consumes them, so an observer that
 * ignores them adds no hit-path work; one that consumes them costs one
 * virtual call per line-touching access (the fast paths hoist the
 * pointer once per batch). The engine's run() core fires the miss-path
 * hook set — onWriteback (via writebackToNext), onDecoderReprogram
 * (from a variant's install hook), onInstall — in program order for
 * every variant. -DBSIM_NO_OBSERVE compiles the miss-path notification
 * sites out.
 */

#ifndef BSIM_CACHE_TAG_ARRAY_ENGINE_HH
#define BSIM_CACHE_TAG_ARRAY_ENGINE_HH

#include <span>

#include "cache/base_cache.hh"

namespace bsim {

/** Why the engine is walking the tag array. */
enum class EngineMode : std::uint8_t {
    Demand,    ///< demand access from above: counts stats, refills
    Writeback, ///< dirty victim delivered by the level above
};

/**
 * Base of every variant's Probe result. `frame` is the physical line the
 * access resolved to (valid on a hit; on a miss the engine asks
 * victimFrame() instead); `penalty` is extra latency charged on top of
 * hitLatency() (victim-buffer probe, rehash probe, PAD misprediction).
 */
struct ProbeBase
{
    /** Sentinel frame for accesses that touch no physical line. */
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    bool hit = false;
    std::size_t frame = kNoLine;
    Cycles penalty = 0;
};

/** Placeholder context for variants without a batched fast path. */
struct NoBatchContext
{
};

/** Stats sink of the scalar demand path: counters update immediately. */
struct DirectTagStatsSink
{
    CacheStats &stats;

    void access(AccessType t, bool hit) { stats.recordAccess(t, hit); }
    void writethrough() { ++stats.writethroughs; }
};

/**
 * Stats sink of the writeback-from-above path: writebacks are not demand
 * accesses (they must not perturb the miss-rate metric the paper
 * reports), so only forwarded stores are counted.
 */
struct WritebackTagStatsSink
{
    CacheStats &stats;

    void access(AccessType, bool) {}
    void writethrough() { ++stats.writethroughs; }
};

/**
 * Stats sink of the batched path: aggregate counters accumulate in
 * registers and flush into the cache's CacheStats once per batch. The
 * flushed result is exactly what the per-access sinks would have
 * produced (tests/test_batch_equivalence.cc).
 */
struct BatchTagStatsSink
{
    BatchStatsAccumulator acc;
    std::uint64_t writethroughs = 0;

    void access(AccessType t, bool hit) { acc.record(t, hit); }
    void writethrough() { ++writethroughs; }

    void
    flushInto(CacheStats &stats)
    {
        acc.flushInto(stats);
        stats.writethroughs += writethroughs;
    }
};

template <typename Derived>
class TagArrayEngine : public BaseCache
{
  public:
    using BaseCache::BaseCache;

    static constexpr std::size_t kNoLine = ProbeBase::kNoLine;

    AccessOutcome
    access(const MemAccess &req) override
    {
        DirectTagStatsSink sink{stats_};
        const RunResult r = run(req, EngineMode::Demand, sink);
        sink.access(req.type, r.hit);
        if (r.frame != kNoLine)
            recordLineOnly(r.frame, r.hit);
        return {r.hit, hitLatency() + r.extraLatency};
    }

    /**
     * Batched access path: per-access logic identical to access() (both
     * drive the same resolve() core), but hits may resolve through the
     * variant's inlined tryFastHit(), which otherwise hands over its
     * probe, and aggregate counters accumulate in a register-resident
     * sink flushed once per batch. Bit-identical to per-access driving
     * for every variant (tests/test_batch_equivalence.cc,
     * bsim_verify_alt).
     */
    void
    accessBatch(std::span<const MemAccess> reqs,
                AccessOutcome *out) override
    {
        BatchTagStatsSink sink;
        auto ctx = self().makeBatchContext();
        const Cycles hit_lat = hitLatency();
        typename Derived::Probe pr;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const MemAccess req = reqs[i];
            if (self().tryFastHit(ctx, req, sink, out[i], pr))
                continue;
            const RunResult r = resolve(pr, req, EngineMode::Demand, sink);
            sink.access(req.type, r.hit);
            if (r.frame != kNoLine)
                recordLineOnly(r.frame, r.hit);
            out[i] = {r.hit, hit_lat + r.extraLatency};
        }
        self().finishBatch(ctx);
        const std::uint64_t misses_before = stats_.misses;
        sink.flushInto(stats_);
        memoPays_ = (stats_.misses - misses_before) * 25 < reqs.size();
    }

    /**
     * A writeback from above behaves like a store that does not fetch
     * the block on a miss's critical path: same probe/victim/install
     * sequence in Writeback mode, no demand counters, no refill fetch.
     */
    void
    writeback(Addr addr) override
    {
        WritebackTagStatsSink sink{stats_};
        const MemAccess req{addr, AccessType::Write};
        const RunResult r = run(req, EngineMode::Writeback, sink);
        if constexpr (Derived::kCountWritebackRefills) {
            // Only count a refill when a line was actually installed
            // (not on hits, not on forwarded no-allocate stores).
            if (!r.hit && r.frame != kNoLine)
                ++stats_.refills;
        }
    }

  protected:
    // ---- defaults for the optional hooks; a derived definition of the
    // ---- same name hides these (static CRTP dispatch picks theirs).

    /** Variants opt in by hiding these with `= true` definitions. */
    static constexpr bool kHasWritePolicy = false;
    static constexpr bool kCountWritebackRefills = false;

    /** Demand-miss taxonomy hook (the B-Cache's PD stats). */
    void onMissClassified(const ProbeBase &, EngineMode) {}

    /**
     * Batched fast-path hooks; the defaults take the generic loop (the
     * probe is the variant's own, so its side counters tick once).
     */
    NoBatchContext makeBatchContext() { return {}; }

    template <typename Ctx, typename Sink, typename P>
    bool
    tryFastHit(Ctx &, const MemAccess &req, Sink &, AccessOutcome &,
               P &pr)
    {
        pr = self().probe(req, EngineMode::Demand);
        return false;
    }

    template <typename Ctx>
    void
    finishBatch(Ctx &)
    {
    }

    // ---- shared helpers for the variants' hooks.

    /**
     * Whether a batched fast path should consult its last-block memo
     * this batch: true when the previous batch missed on fewer than 1
     * in 25 accesses. The memo pays on hit-heavy streams, where most
     * accesses repeat the previous block; on miss-heavy ones repeats
     * are rarer and less regular, and a wrong guess of the memo branch
     * costs more than the scan it skips. The miss share tells the two
     * apart at no per-access cost. It only picks a code path, never a
     * result.
     */
    bool memoPays() const { return memoPays_; }

    /** Forward a store (or an incoming dirty block) to the next level. */
    void
    forwardStoreToNext(const MemAccess &req)
    {
        if (nextLevel())
            nextLevel()->writeback(geom_.blockAlign(req.addr));
    }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }

    /** The previous batch was hit-heavy (see memoPays()). */
    bool memoPays_ = false;

    struct RunResult
    {
        bool hit;
        std::size_t frame;
        Cycles extraLatency;
    };

    /**
     * The single source of the access algorithm; every entry point is an
     * instantiation of this core with a mode and a stats sink. The
     * caller records the aggregate access and the per-line usage; the
     * core records everything else (writethroughs, next-level traffic)
     * in program order, so the ordered memory-event sequence is
     * identical however the cache is driven.
     */
    template <typename Sink>
    RunResult
    run(const MemAccess &req, EngineMode mode, Sink &sink)
    {
        return resolve(self().probe(req, mode), req, mode, sink);
    }

    /**
     * run() after the probe: the batched loop enters here with the probe
     * its fast path already took.
     */
    template <typename P, typename Sink>
    RunResult
    resolve(const P &pr, const MemAccess &req, EngineMode mode, Sink &sink)
    {
        const bool write = req.type == AccessType::Write;
        bool write_through = false;
        if constexpr (Derived::kHasWritePolicy)
            write_through = self().writeThroughPolicy();

        if (pr.hit) {
            const bool wt_store = write && write_through;
            if (wt_store) {
                // Write-through: the store reaches the next level; the
                // resident copy stays clean.
                sink.writethrough();
                forwardStoreToNext(req);
            }
            self().onHit(pr, req, mode, /*set_dirty=*/write && !wt_store);
            return {true, pr.frame, pr.penalty};
        }

        self().onMissClassified(pr, mode);

        if (write && write_through) {
            // Miss under no-write-allocate: forward the store, touch no
            // cache state and no physical line.
            sink.writethrough();
            forwardStoreToNext(req);
            return {false, kNoLine, pr.penalty};
        }

        // Miss: displace (victimFrame writes back every displaced dirty
        // block), fetch on the demand path only, then install. The
        // observer hook set fires here in program order — onWriteback
        // from inside victimFrame's writebackToNext, onDecoderReprogram
        // from the variant's install, then onInstall — so an attached
        // CacheObserver sees the same event sequence however the cache
        // is driven (per-access, batched, or writeback-from-above).
        const std::size_t frame = self().victimFrame(pr, req, mode);
        Cycles extra = 0;
        if (mode == EngineMode::Demand)
            extra = refillFromNext(req);
        self().install(frame, pr, req, mode);
        observeInstall(frame);
        return {false, frame, extra + pr.penalty};
    }
};

} // namespace bsim

#endif // BSIM_CACHE_TAG_ARRAY_ENGINE_HH
