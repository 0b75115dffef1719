/**
 * @file
 * Conventional N-way set-associative cache (N = 1 gives the paper's
 * direct-mapped baseline). Write-back, write-allocate by default.
 *
 * Composed over the shared TagArrayEngine: modulo index function,
 * all-ways activation, a Replacement policy and a write policy.
 * The engine owns access()/accessBatch()/writeback(); this class only
 * supplies the probe/onHit/victimFrame/install hooks plus a tuned
 * inline hit path for the batched loop.
 */

#ifndef BSIM_CACHE_SET_ASSOC_CACHE_HH
#define BSIM_CACHE_SET_ASSOC_CACHE_HH

#include "cache/replacement.hh"
#include "cache/tag_array_engine.hh"
#include "cache/tag_store.hh"

namespace bsim {

class SetAssocCache : public TagArrayEngine<SetAssocCache>
{
  public:
    SetAssocCache(std::string name, const CacheGeometry &geom,
                  Cycles hit_latency, MemLevel *next,
                  ReplPolicyKind repl = ReplPolicyKind::LRU,
                  std::uint64_t repl_seed = 1,
                  WritePolicy write_policy =
                      WritePolicy::WriteBackAllocate);

    void reset() override;

    /** True if the block containing @p addr is resident (no side effects). */
    bool contains(Addr addr) const override;

    /** Way holding @p addr, or -1. No side effects (for tests). */
    int probeWay(Addr addr) const;

    WritePolicy writePolicy() const { return writePolicy_; }

  private:
    friend class TagArrayEngine<SetAssocCache>;

    /** Engine probe result: modulo set, full tag, hit way. */
    struct Probe : ProbeBase
    {
        std::size_t set = 0;
        std::size_t way = 0;
        Addr tag = 0;
    };

    /** Hoisted fields of the batched fast hit path (one per batch). */
    struct BatchCtx
    {
        std::size_t ways;
        unsigned offsetBits;
        unsigned indexBits;
        Cycles hitLat;
        bool writeThrough;
        SetUsage *usage;
        CacheObserver *obs;
        /**
         * Consult the memo this batch: memoPays(), and more than one
         * way (a one-way row has no scan for the memo to skip).
         */
        bool useMemo;
        /**
         * Last-block memo: block number and way of the last fast hit,
         * or kEmptyKey (no block number equals it) for none. Fast hits
         * never move a tag, so the memo stays exact until a
         * fall-through to the engine clears it.
         */
        Addr memoBlock = kEmptyKey;
        int memoWay = 0;
    };

    // Engine traits + hooks (see cache/tag_array_engine.hh).
    static constexpr bool kHasWritePolicy = true;
    static constexpr bool kCountWritebackRefills = true;

    bool
    writeThroughPolicy() const
    {
        return writePolicy_ == WritePolicy::WriteThroughNoAllocate;
    }

    Probe probe(const MemAccess &req, EngineMode mode);
    void onHit(const Probe &pr, const MemAccess &req, EngineMode mode,
               bool set_dirty);
    std::size_t victimFrame(const Probe &pr, const MemAccess &req,
                            EngineMode mode);
    void install(std::size_t frame, const Probe &pr, const MemAccess &req,
                 EngineMode mode);

    BatchCtx makeBatchContext();
    bool tryFastHit(BatchCtx &ctx, const MemAccess &req,
                    BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr);
    /**
     * tryFastHit() with the memo compiled in or out, so a batch that
     * does not consult the memo pays nothing for it.
     */
    template <bool kMemo>
    bool fastHit(BatchCtx &ctx, const MemAccess &req,
                 BatchTagStatsSink &sink, AccessOutcome &out, Probe &pr);

    /** Find the way matching addr in its set, or -1. */
    int findWay(std::size_t set, Addr tag) const;

    TagStore tags_; ///< keyed by geometry tag
    Replacement repl_;
    WritePolicy writePolicy_;
};

/**
 * The engine entry points are compiled once, in set_assoc_cache.cc,
 * where every hook definition is visible and inlines into the hot
 * access/accessBatch loops (the hooks live in the .cc, so an implicit
 * instantiation elsewhere would call them out of line per access).
 */
extern template class TagArrayEngine<SetAssocCache>;

} // namespace bsim

#endif // BSIM_CACHE_SET_ASSOC_CACHE_HH
