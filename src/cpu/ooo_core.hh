/**
 * @file
 * Four-issue out-of-order core timing model (the paper's Table 4
 * configuration: 4 instructions/cycle, 4 functional units, 16-entry
 * instruction window).
 *
 * The model is timestamp-dataflow rather than cycle-stepped: each µop's
 * fetch, ready, issue, completion and commit times are derived from its
 * predecessors under the structural constraints (fetch/commit width,
 * window occupancy, functional units, I$ stalls, branch redirects). This
 * captures exactly the mechanism the paper's IPC numbers depend on —
 * exposure of L1 miss latency, partially overlapped by the window — at a
 * fraction of the cost of a cycle-accurate pipeline.
 */

#ifndef BSIM_CPU_OOO_CORE_HH
#define BSIM_CPU_OOO_CORE_HH

#include <span>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/microop.hh"

namespace bsim {

/** Core structural parameters (defaults = paper Table 4). */
struct CoreParams
{
    std::uint32_t fetchWidth = 4;
    std::uint32_t commitWidth = 4;
    std::uint32_t windowSize = 16;
    std::uint32_t numFus = 4;
    /** Front-end refill penalty after a mispredicted branch resolves. */
    Cycles mispredictPenalty = 5;
    /** Fetch-to-ready pipeline depth (decode/rename). */
    Cycles frontendDepth = 2;
};

/** Results of one simulation run. */
struct CpuResult
{
    std::uint64_t uops = 0;
    Cycles cycles = 0;
    double ipc() const
    {
        return cycles ? double(uops) / double(cycles) : 0.0;
    }
    /** µops by class, indexed by OpClass. */
    std::uint64_t perClass[5] = {0, 0, 0, 0, 0};

    // Approximate stall attribution (cycle-accounting): these are the
    // raw penalty cycles injected by each mechanism. They overlap under
    // the out-of-order window, so their sum exceeds the stall cycles
    // actually exposed; they are reported for *relative* comparisons.
    Cycles icacheStallCycles = 0; ///< fetch stalls on I$ fills
    Cycles loadMissCycles = 0;    ///< load latency beyond the L1 hit
    Cycles mispredictCycles = 0;  ///< front-end refill after redirects
    std::uint64_t mispredicts = 0;
};

/**
 * The core is steppable: begin() starts a run, each step() feeds the
 * next µops in program order, and result() reads the run so far. The
 * µop stream is open-loop (the core never feeds back into it), so a
 * caller may generate one stream and step several cores, each with its
 * own hierarchy, over the same batches; every core ends exactly where a
 * run() over the same µops would. Batch boundaries do not matter.
 */
class OooCore
{
  public:
    /** µops run() pulls from its program per step() (and runTimedEach). */
    static constexpr std::size_t kBatchLen = 1024;

    OooCore(const CoreParams &params, CacheHierarchy &hierarchy);

    /**
     * Run @p num_uops µops from @p program; hierarchy keeps its state.
     * Equivalent to begin(), step() over the µops, then result().
     */
    CpuResult run(SyntheticProgram &program, std::uint64_t num_uops);

    /**
     * Start a new run: empty window, idle units, zero counters. The
     * constructor starts one, so a fresh core can step() right away.
     */
    void begin();

    /** Fetch, execute and commit @p ops, the run's next µops. */
    void step(std::span<const MicroOp> ops);

    /** The run so far: every µop stepped since begin(). */
    CpuResult result() const;

    const CoreParams &params() const { return params_; }

  private:
    CoreParams params_;
    CacheHierarchy &hier_;

    // Pipeline state carried from one step() to the next. Ring buffers
    // over the last windowSize µops, plus the fetch and commit cursors.
    std::vector<Cycles> completion_; ///< execution completion time
    std::vector<Cycles> commit_;     ///< in-order commit time
    std::vector<Cycles> fuFree_;     ///< next free cycle per FU
    Cycles fetchCycle_ = 1;          ///< cycle the next fetch group starts
    std::uint32_t fetchedInCycle_ = 0;
    Cycles lastCommit_ = 0;
    std::uint32_t committedInCycle_ = 0;
    Cycles commitCycleOfLast_ = 0;
    Addr lastFetchLine_ = ~Addr{0};
    std::uint64_t n_ = 0; ///< µops stepped since begin()
    CpuResult res_;
};

} // namespace bsim

#endif // BSIM_CPU_OOO_CORE_HH
