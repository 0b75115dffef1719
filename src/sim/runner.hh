/**
 * @file
 * Experiment runners shared by the benchmark harnesses and the examples:
 * standalone miss-rate runs over one address stream, and full timed runs
 * (OOO core + two-level hierarchy) that also collect the activity counts
 * the energy model consumes.
 */

#ifndef BSIM_SIM_RUNNER_HH
#define BSIM_SIM_RUNNER_HH

#include <chrono>
#include <exception>
#include <optional>
#include <vector>

#include "bcache/balance.hh"
#include "bcache/bcache.hh"
#include "cpu/ooo_core.hh"
#include "observe/observer.hh"
#include "power/energy_model.hh"
#include "sim/config.hh"
#include "workload/spec2k.hh"

namespace bsim {

/** Which of a workload's streams to run. */
enum class StreamSide : std::uint8_t { Inst, Data };

/** Workload seed behind every table in EXPERIMENTS.md. */
inline constexpr std::uint64_t kDefaultSeed = 0xb5eedULL;

/**
 * One member's part of a run that feeds one source to several cache
 * configs (Session::runEach, runTimedEach). A member whose config fails
 * to build, or whose run throws, carries the exception instead of a
 * result; the other members are unaffected.
 */
template <class Result>
struct DutRunOf
{
    std::optional<Result> result;
    std::exception_ptr error;
    /**
     * This member's own time: its build, its share of the simulation
     * and its result assembly. Pulling records or µops from the source
     * is shared by every member and is not included.
     */
    double seconds = 0.0;

    /**
     * Run @p step on this member's clock. A throw is kept in `error`
     * and false returned, so the caller can drop the member's models.
     */
    template <class Step>
    bool
    timed(Step &&step)
    {
        const auto start = std::chrono::steady_clock::now();
        bool ok = true;
        try {
            step();
        } catch (...) {
            error = std::current_exception();
            ok = false;
        }
        seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        return ok;
    }
};

/** Result of a standalone miss-rate run. */
struct MissRateResult
{
    std::string workload;
    std::string config;
    CacheStats stats;
    std::optional<PdStats> pd;       ///< B-Cache runs only
    std::uint64_t victimHits = 0;    ///< victim runs only
    BalanceReport balance;           ///< Table 7 classification
    /** Collected when the run was observed (ObserverConfig::enabled). */
    std::optional<ObserverReport> observer;

    double missRate() const { return stats.missRate(); }
};

/**
 * Run @p accesses of one side of a workload through a standalone cache
 * (misses are counted but not forwarded). When @p observe is enabled a
 * StatsObserver rides along and its report (with the B-Cache decoder
 * occupancy snapshot, if applicable) lands in MissRateResult::observer.
 */
MissRateResult runMissRate(const std::string &workload_name,
                           StreamSide side, const CacheConfig &config,
                           std::uint64_t accesses,
                           std::uint64_t seed = kDefaultSeed,
                           const ObserverConfig &observe = {});

/** As above but over an explicit stream (trace replay etc.). */
MissRateResult runMissRateOn(AccessStream &stream,
                             const CacheConfig &config,
                             std::uint64_t accesses,
                             const std::string &workload_label,
                             const ObserverConfig &observe = {});

/** Result of a timed run. */
struct TimedResult
{
    std::string workload;
    std::string config;
    CpuResult cpu;
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    ActivityCounts activity;
    double ipc() const { return cpu.ipc(); }
};

/** One config's part of a runTimedEach() run. */
using TimedDutRun = DutRunOf<TimedResult>;

/**
 * Run @p uops through the OOO core (paper Table 4 processor) with both L1
 * caches built from @p config, a shared 256 kB L2 and 100-cycle memory.
 * The one-config case of runTimedEach(); a failure is rethrown.
 */
TimedResult runTimed(const std::string &workload_name,
                     const CacheConfig &config, std::uint64_t uops,
                     std::uint64_t seed = kDefaultSeed,
                     const HierarchyParams &hierarchy_params = {});

/**
 * runTimed() for every config in @p configs off one µop stream: the
 * workload's SyntheticProgram is built once, and each batch of
 * OooCore::kBatchLen µops it generates is stepped through every
 * member's own core and hierarchy. The program is open-loop, so each
 * result is bit-identical to the member's own runTimed(). Results come
 * back in config order; a member whose config fails to build or whose
 * run throws fails alone. An error of the workload itself propagates.
 */
std::vector<TimedDutRun> runTimedEach(
    const std::string &workload_name,
    const std::vector<CacheConfig> &configs, std::uint64_t uops,
    std::uint64_t seed = kDefaultSeed,
    const HierarchyParams &hierarchy_params = {});

/** Per-event energy rates for @p config (CactiLite + paper methodology). */
EnergyRates energyRatesFor(const CacheConfig &config,
                           PicoJoules static_per_cycle = 0);

/** Environment-tunable run lengths (BSIM_ACCESSES / BSIM_UOPS). */
std::uint64_t defaultAccesses(std::uint64_t fallback = 2'000'000);
std::uint64_t defaultUops(std::uint64_t fallback = 1'000'000);

/**
 * Attach a StatsObserver to @p cache for the duration of a run. Returns
 * null (and attaches nothing) when @p observe is disabled. Shared by
 * every Session run.
 */
std::unique_ptr<StatsObserver> attachObserver(
    BaseCache &cache, const ObserverConfig &observe);

/**
 * Harvest the attached observer's report at end of run, folding in the
 * cache's own per-line histogram (setUsage()) and writeback total, and
 * the B-Cache decoder occupancy snapshot; nullopt when @p obs is null.
 * The observer must have been attached before the cache's first access.
 */
std::optional<ObserverReport> harvestObserver(const StatsObserver *obs,
                                              BaseCache &cache);

/**
 * Records per MemLevel::accessBatch call in every Session run. A
 * constant: results are bit-identical at any batch length
 * (verify/batch_equiv pins that), so it is no knob.
 */
inline constexpr std::size_t kDefaultBatchLen = 1024;

/** kDefaultBatchLen; perfbench sizes its batch buffers with it. */
inline constexpr std::size_t defaultBatchLen() { return kDefaultBatchLen; }

} // namespace bsim

#endif // BSIM_SIM_RUNNER_HH
