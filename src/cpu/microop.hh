/**
 * @file
 * The µop abstraction consumed by the out-of-order timing model, and the
 * SyntheticProgram that turns a SpecWorkload (instruction + data address
 * streams plus a CPU profile) into a dependent µop stream.
 */

#ifndef BSIM_CPU_MICROOP_HH
#define BSIM_CPU_MICROOP_HH

#include "common/random.hh"
#include "workload/spec2k.hh"

namespace bsim {

/** Functional class of a µop. */
enum class OpClass : std::uint8_t {
    IntAlu,
    LongLat, ///< multi-cycle (FP / mul) operation
    Load,
    Store,
    Branch,
};

const char *opClassName(OpClass c);

/** One dynamic µop. */
struct MicroOp
{
    OpClass cls = OpClass::IntAlu;
    Addr pc = 0;
    Addr mem = 0;            ///< effective address (loads/stores)
    std::uint8_t dep1 = 0;   ///< distance to first producer (0 = none)
    std::uint8_t dep2 = 0;   ///< distance to second producer (0 = none)
    std::uint8_t latency = 1;
    bool mispredicted = false; ///< branches only
};

/**
 * Generates the dynamic µop stream of a synthetic benchmark: program
 * counters from the workload's instruction stream, effective addresses
 * from its data stream, op classes and register dependences drawn from the
 * CPU profile. Deterministic in the workload seed.
 */
class SyntheticProgram
{
  public:
    SyntheticProgram(SpecWorkload workload, std::uint64_t seed = 0x5eed);

    /** The next µop; nextBatch() of one. */
    MicroOp next();
    /** The next @p n µops into @p out, as @p n next() calls would. */
    void nextBatch(MicroOp *out, std::size_t n);

    const CpuProfile &profile() const { return workload_.cpu; }

  private:
    SpecWorkload workload_;
    Rng rng_;
};

} // namespace bsim

#endif // BSIM_CPU_MICROOP_HH
