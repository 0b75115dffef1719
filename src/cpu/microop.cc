#include "cpu/microop.hh"

namespace bsim {

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu:
        return "alu";
      case OpClass::LongLat:
        return "longlat";
      case OpClass::Load:
        return "load";
      case OpClass::Store:
        return "store";
      case OpClass::Branch:
        return "branch";
    }
    return "?";
}

SyntheticProgram::SyntheticProgram(SpecWorkload workload,
                                   std::uint64_t seed)
    : workload_(std::move(workload)), rng_(seed), dep1_(0.45, 14),
      dep2_(0.35, 14)
{
}

MicroOp
SyntheticProgram::next()
{
    MicroOp op;
    nextBatch(&op, 1);
    return op;
}

void
SyntheticProgram::nextBatch(MicroOp *out, std::size_t n)
{
    const CpuProfile &p = workload_.cpu;
    AccessStream &inst = *workload_.inst;
    AccessStream &data = *workload_.data;
    for (MicroOp *const end = out + n; out != end; ++out) {
        MicroOp op;
        op.pc = pcs_.next(inst);

        const double u = rng_.nextDouble();
        double acc = p.loadFrac;
        if (u < acc) {
            op.cls = OpClass::Load;
        } else if (u < (acc += p.storeFrac)) {
            op.cls = OpClass::Store;
        } else if (u < (acc += p.branchFrac)) {
            op.cls = OpClass::Branch;
            op.mispredicted = rng_.nextBool(p.mispredictPerBranch);
        } else if (u < (acc += p.longLatFrac)) {
            op.cls = OpClass::LongLat;
            op.latency = static_cast<std::uint8_t>(p.longLatency);
        }

        if (op.cls == OpClass::Load || op.cls == OpClass::Store)
            op.mem = data_.next(data);

        // Register dependences: short distances dominate (typical
        // dataflow).
        if (rng_.nextBool(0.8))
            op.dep1 = static_cast<std::uint8_t>(1 + dep1_(rng_));
        if (rng_.nextBool(0.3))
            op.dep2 = static_cast<std::uint8_t>(1 + dep2_(rng_));
        *out = op;
    }
}

} // namespace bsim
