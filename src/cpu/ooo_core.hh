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
 * fraction of the cost of a cycle-accurate pipeline. The hierarchy calls
 * and the timestamp arithmetic run as two passes per batch, and one
 * timestamp pass can time several cores at once (see OooCore).
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

    bool operator==(const CoreParams &) const = default;
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
 * What a batch of µops asks of the memory hierarchy, for every core
 * whose L1I has one line size. None of it depends on the core: the
 * I-line crossings, the refetch after a mispredicted branch, the loads
 * and stores, the class counts and the mispredicts follow from the
 * µops alone. So a caller that steps several cores over one µop stream
 * decodes each batch once per L1I line size, and every core's
 * OooCore::memoryPass() walks the same decode.
 *
 * The decoder carries the I-line of the last fetch from one batch to
 * the next, so it belongs to one run: begin() starts a new one.
 */
class DecodedBatch
{
  public:
    /** One hierarchy call of the batch. */
    struct Ref
    {
        enum class Kind : std::uint8_t { Fetch, Load, Store };

        Addr addr;
        std::uint32_t uop; ///< the µop's index in the batch
        Kind kind;
    };

    /** A decoder for L1I lines of 2^@p line_bits bytes. */
    explicit DecodedBatch(unsigned line_bits);

    /** Forget the last fetched line, as at the start of a run. */
    void begin() { fetchedLine_ = ~Addr{0}; }

    /**
     * Decode @p ops, the run's next µops. The refs are the batch's
     * hierarchy calls in program order: a fetch on each I-line crossing
     * and after each mispredicted branch, then each load or store.
     */
    void decode(std::span<const MicroOp> ops);

    unsigned lineBits() const { return lineBits_; }
    std::size_t size() const { return size_; }
    std::span<const Ref> refs() const { return {refs_.data(), numRefs_}; }
    /** Each µop's own execution latency (MicroOp::latency). */
    const std::uint8_t *exec() const { return exec_.data(); }
    /** µops by class, indexed by OpClass. */
    const std::uint64_t *perClass() const { return perClass_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

  private:
    unsigned lineBits_;
    Addr fetchedLine_ = ~Addr{0}; ///< I-line of the run's last fetch
    std::vector<Ref> refs_;
    std::vector<std::uint8_t> exec_;
    std::size_t numRefs_ = 0;
    std::size_t size_ = 0;
    std::uint64_t perClass_[5] = {0, 0, 0, 0, 0};
    std::uint64_t mispredicts_ = 0;
};

/**
 * The core is steppable: begin() starts a run, each step() feeds the
 * next µops in program order, and result() reads the run so far. The
 * µop stream is open-loop (the core never feeds back into it), so a
 * caller may generate one stream and step several cores, each with its
 * own hierarchy, over the same batches; every core ends exactly where a
 * run() over the same µops would. Batch boundaries do not matter.
 *
 * A step runs in two passes. No hierarchy call depends on a timestamp,
 * so a DecodedBatch lists every call of a batch; memoryPass() makes
 * them in program order on this core's hierarchy and records each µop's
 * fetch stall and execution latency, and timestampPass() then derives
 * the fetch, ready, issue, commit and redirect times from those
 * latencies with no opaque call, for several cores at once. step()
 * decodes with the core's own decoder, then runs a memoryPass() and a
 * one-core timestampPass().
 */
class OooCore
{
  public:
    /**
     * µops run() pulls from its program per step(), and the most one
     * memoryPass() takes.
     */
    static constexpr std::size_t kBatchLen = 1024;
    /** Cores one timestampPass() block interleaves. */
    static constexpr std::size_t kLanes = 8;

    /** @p hierarchy must hold its L1s already. */
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

    /**
     * The first pass over @p batch, the run's next µops (at most
     * kBatchLen) decoded for this core's L1I line size: every hierarchy
     * call in program order, the result() counters, and each µop's
     * latencies for the timestampPass() that must follow.
     */
    void memoryPass(const DecodedBatch &batch);

    /**
     * The second pass over @p ops on every core of @p cores, µop-major
     * and core-minor, in blocks of kLanes cores. Each core has just run
     * memoryPass(@p ops); all share one CoreParams and have stepped the
     * same µops. Pure arithmetic: it makes no hierarchy call.
     */
    static void timestampPass(std::span<OooCore *const> cores,
                              std::span<const MicroOp> ops);

    /** The run so far: every µop stepped since begin(). */
    CpuResult result() const;

    const CoreParams &params() const { return params_; }

  private:
    /** What memoryPass() records of one µop for timestampPass(). */
    struct UopLatency
    {
        Cycles fetchStall; ///< I$ fill cycles beyond the hit, else 0
        Cycles exec;       ///< issue to completion
    };

    static void timeBlock(std::span<OooCore *const> cores,
                          std::span<const MicroOp> ops);

    CoreParams params_;
    CacheHierarchy &hier_;

    /** step()'s decoder; a caller of memoryPass() brings its own. */
    DecodedBatch decoded_;

    // Memory-pass state: the counters and the latencies of the batch
    // awaiting its timestamp pass.
    CpuResult res_;
    std::vector<UopLatency> latency_;
    std::size_t pending_ = 0; ///< µops memory-passed but not yet timed

    /** The fetch and commit cursors of the timestamp pass. */
    struct Cursors
    {
        Cycles fetchCycle = 1; ///< cycle the next fetch group starts
        Cycles lastCommit = 0; ///< commit time of the last µop
        std::uint32_t fetchedInCycle = 0;
        std::uint32_t committedInCycle = 0;
    };

    // Timestamp-pass state carried from one step to the next: ring
    // buffers over the last windowSize µops, plus the cursors.
    // completion_ has one more slot, always 0, that a µop without a
    // producer in the window reads.
    std::vector<Cycles> completion_; ///< execution completion time
    std::vector<Cycles> commit_;     ///< in-order commit time
    std::vector<Cycles> fuFree_;     ///< next free cycle per FU
    Cursors cursors_;
    std::uint64_t n_ = 0; ///< µops timed since begin()
};

} // namespace bsim

#endif // BSIM_CPU_OOO_CORE_HH
