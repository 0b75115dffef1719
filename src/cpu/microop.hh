/**
 * @file
 * The µop abstraction consumed by the out-of-order timing model, and the
 * SyntheticProgram that turns a SpecWorkload (instruction + data address
 * streams plus a CPU profile) into a dependent µop stream.
 */

#ifndef BSIM_CPU_MICROOP_HH
#define BSIM_CPU_MICROOP_HH

#include <vector>

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
 *
 * The program pulls both address streams kPullLen records ahead, one
 * nextBatch() at a time. That is exact: each stream is owned by the
 * program and drawn from its own seed, not from the µop Rng, so its
 * sequence does not depend on when it is read, and every µop takes the
 * next PC and every load or store the next data address, in order.
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
    /** Records one Pull asks its stream for at a time. */
    static constexpr std::size_t kPullLen = 256;

    /** The addresses of one of the workload's streams, read ahead. */
    class Pull
    {
      public:
        Pull() : buf_(kPullLen), at_(kPullLen) {}

        Addr
        next(AccessStream &stream)
        {
            if (at_ == kPullLen) {
                stream.nextBatch(buf_.data(), kPullLen);
                at_ = 0;
            }
            return buf_[at_++].addr;
        }

      private:
        std::vector<MemAccess> buf_;
        std::size_t at_;
    };

    SpecWorkload workload_;
    Rng rng_;
    GeometricDraw dep1_; ///< distance to the first producer, less one
    GeometricDraw dep2_; ///< distance to the second producer, less one
    Pull pcs_;
    Pull data_;
};

} // namespace bsim

#endif // BSIM_CPU_MICROOP_HH
