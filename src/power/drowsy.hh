/**
 * @file
 * Drowsy-cache leakage estimator (the Section 6.4 remark: the B-Cache's
 * remaining less-accessed sets can still be put into a drowsy state, so
 * leakage techniques like Drowsy Cache / Cache Decay compose with it).
 *
 * Model: time advances one tick per cache access. A line not accessed
 * for a full window is lowered into the drowsy (low-leakage) state; the
 * next access to it pays a wake-up penalty. The estimator reports the
 * fraction of line-ticks spent drowsy and the resulting leakage factor
 *
 *     leakage = awake_fraction + drowsy_fraction * drowsy_leak
 */

#ifndef BSIM_POWER_DROWSY_HH
#define BSIM_POWER_DROWSY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/base_cache.hh"
#include "common/types.hh"

namespace bsim {

/** Drowsy policy parameters. */
struct DrowsyParams
{
    /** Idle ticks (cache accesses) before a line goes drowsy. */
    std::uint64_t windowTicks = 2000;
    /** Leakage of a drowsy line relative to an awake one. */
    double drowsyLeakFactor = 0.10;
    /** Extra cycles to wake a drowsy line on access. */
    Cycles wakePenalty = 1;
};

/** Aggregate results of a drowsy estimation run. */
struct DrowsyReport
{
    std::uint64_t ticks = 0;         ///< total accesses observed
    std::uint64_t lines = 0;
    double drowsyFraction = 0;       ///< drowsy line-ticks / line-ticks
    std::uint64_t wakeups = 0;       ///< accesses that hit drowsy lines
    double leakageFactor = 1.0;      ///< relative leakage energy
    double avgWakePenaltyPerAccess = 0;

    std::string toString() const;
};

/**
 * Attach to a cache via BaseCache::setCacheObserver, run a workload, then
 * call report(). Exact per-line idle-gap accounting: a gap of g ticks
 * contributes max(0, g - window) drowsy ticks.
 */
class DrowsyEstimator : public CacheObserver
{
  public:
    DrowsyEstimator(std::size_t num_lines, const DrowsyParams &params);

    void onLineAccess(std::size_t physical_line, bool hit) override;

    /** Finalize (accounts the tail gaps) and return the report. */
    DrowsyReport report() const;

    void reset();

    const DrowsyParams &params() const { return params_; }

  private:
    DrowsyParams params_;
    std::uint64_t now_ = 0;
    /** Last access tick + 1 per line; 0 = never accessed. */
    std::vector<std::uint64_t> lastAccess_;
    std::uint64_t drowsyTicks_ = 0;
    std::uint64_t wakeups_ = 0;
};

} // namespace bsim

#endif // BSIM_POWER_DROWSY_HH
