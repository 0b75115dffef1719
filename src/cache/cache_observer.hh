/**
 * @file
 * The engine-level observability hook set (the contract is documented in
 * docs/ARCHITECTURE.md, "Observability layer").
 *
 * A CacheObserver sees the physical line of every demand access plus the
 * miss-path events the tag-array engine sequences for every variant:
 * line installs (fills/evictions), writebacks to the next level, and
 * decoder reprogramming (the B-Cache's PD churn). Per-line accesses,
 * hits included, reach only an observer that consumes them
 * (consumesLineAccess()): the cache keeps a separate hit-path pointer
 * that is null otherwise, and the batched fast paths hoist it once per
 * batch. A stats collector without an interval series therefore costs
 * nothing per hit; one that consumes line accesses (an interval series,
 * the drowsy estimator) pays one virtual call per line-touching access.
 * The other hooks only fire on the (orders-of-magnitude rarer) miss path.
 *
 * Compile-time kill switch: building with -DBSIM_NO_OBSERVE compiles the
 * engine's miss-path notification sites out entirely (kObserversEnabled
 * == false), including their null pointer checks, and attachObserver()
 * (sim/runner.hh) then attaches no stats collector. Per-line accesses
 * still reach an attached observer, so drowsy estimation works in either
 * build. The default build keeps the hooks; with no observer attached
 * the only residual cost is one predictable branch per miss-path event
 * (tests/perf_batch_smoke.cc gates the hot loop).
 */

#ifndef BSIM_CACHE_CACHE_OBSERVER_HH
#define BSIM_CACHE_CACHE_OBSERVER_HH

#include <cstddef>

namespace bsim {

/** True unless the hooks were compiled out with -DBSIM_NO_OBSERVE. */
#ifdef BSIM_NO_OBSERVE
inline constexpr bool kObserversEnabled = false;
#else
inline constexpr bool kObserversEnabled = true;
#endif

/**
 * Observability hook set (observe/observer.hh implements the standard
 * collector, power/drowsy.hh the drowsy-leakage estimator), attached via
 * BaseCache::setCacheObserver. Every hook defaults to a no-op so an
 * observer implements only what it consumes. Semantics, in engine order
 * within one miss: onWriteback (if the displaced line was dirty), then
 * onDecoderReprogram (if the variant rewired its decoder), then
 * onInstall, then onLineAccess for the access itself.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /**
     * Whether onLineAccess does anything for this observer. The cache
     * asks once, when the observer is attached, and skips every
     * onLineAccess call when the answer is false — so the answer must
     * not change while the observer is attached.
     */
    virtual bool consumesLineAccess() const { return true; }

    /**
     * A demand access resolved to @p physical_line (called once per
     * access that touches a line, if consumesLineAccess()).
     */
    virtual void onLineAccess(std::size_t /* physical_line */,
                              bool /* hit */)
    {
    }

    /**
     * A line was installed into @p physical_line (demand refill or a
     * writeback-from-above allocation). Every install beyond a frame's
     * first displaces the previous resident — the per-set eviction
     * histogram is installs-after-the-first.
     */
    virtual void onInstall(std::size_t /* physical_line */) {}

    /** A dirty victim was written back to the next level. */
    virtual void onWriteback() {}

    /**
     * A programmable-decoder entry of @p group was rewritten to a new
     * pattern over a previously valid one (B-Cache PD churn; cold
     * programming of an invalid entry does not count).
     */
    virtual void onDecoderReprogram(std::size_t /* group */) {}
};

} // namespace bsim

#endif // BSIM_CACHE_CACHE_OBSERVER_HH
