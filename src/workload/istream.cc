#include "workload/istream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bsim {

namespace {
constexpr std::uint32_t kInstrBytes = 4;
} // namespace

InstructionStream::InstructionStream(const CodeLayout &layout,
                                     std::uint64_t seed)
    : layout_(layout), rng_(seed), loopBack_(0.5, ~std::uint64_t{0})
{
    bsim_assert(layout_.numFunctions > 0 &&
                layout_.blocksPerFunction > 0);
    // Build the static code image: blocks laid out back to back within
    // each function; geometric block sizes drawn from a construction-only
    // generator so the image is independent of the walk.
    Rng build_rng(seed ^ 0x5bd1e995ULL);
    const double p = 1.0 / layout_.avgBlockInstructions;
    blocks_.reserve(std::size_t{layout_.numFunctions} *
                    layout_.blocksPerFunction);
    for (std::uint32_t f = 0; f < layout_.numFunctions; ++f) {
        Addr pc = layout_.codeBase + f * layout_.functionSpacing;
        for (std::uint32_t b = 0; b < layout_.blocksPerFunction; ++b) {
            Block blk;
            blk.start = pc;
            blk.instructions =
                1 + static_cast<std::uint32_t>(
                        build_rng.nextGeometric(p, 64));
            pc += Addr{blk.instructions} * kInstrBytes;
            blocks_.push_back(blk);
        }
        if (pc > layout_.codeBase + (f + 1) * layout_.functionSpacing)
            bsim_warn("function ", f, " overflows its spacing; code of "
                      "adjacent functions overlaps");
    }
}

std::uint64_t
InstructionStream::codeFootprint() const
{
    std::uint64_t bytes = 0;
    for (const auto &b : blocks_)
        bytes += std::uint64_t{b.instructions} * kInstrBytes;
    return bytes;
}

std::uint32_t
InstructionStream::successor(std::uint32_t blk)
{
    if (rng_.nextBool(layout_.loopProb) && blk > 0) {
        // Loop back: biased towards nearby blocks, at most to block 0.
        return blk - 1 -
               static_cast<std::uint32_t>(std::min<std::uint64_t>(
                   loopBack_(rng_), blk - 1));
    }
    // Fall through, wrapping at the function end.
    return blk + 1 == layout_.blocksPerFunction ? 0 : blk + 1;
}

MemAccess
InstructionStream::next()
{
    const Block &blk = blockAt(cur_.function, cur_.block);
    const Addr pc = blk.start + Addr{cur_.instr} * kInstrBytes;

    // Advance.
    if (cur_.instr + 1 < blk.instructions) {
        ++cur_.instr;
    } else {
        // Block end: return, call, or intra-function branch.
        if (!callStack_.empty() &&
            rng_.nextBool(0.5 * layout_.callProb +
                          0.05 * callStack_.size())) {
            cur_ = callStack_.back();
            callStack_.pop_back();
        } else if (callStack_.size() < layout_.maxCallDepth &&
                   layout_.numFunctions > 1 &&
                   rng_.nextBool(layout_.callProb)) {
            // Call: remember the fall-through continuation.
            Frame ret = cur_;
            ret.block = successor(cur_.block);
            ret.instr = 0;
            callStack_.push_back(ret);
            std::uint32_t callee =
                static_cast<std::uint32_t>(
                    rng_.nextBounded(layout_.numFunctions - 1));
            if (callee >= cur_.function)
                ++callee;
            cur_ = {callee, 0, 0};
        } else {
            cur_.block = successor(cur_.block);
            cur_.instr = 0;
        }
    }
    return {pc, AccessType::Fetch};
}

void
InstructionStream::nextBatch(MemAccess *dst, std::size_t n)
{
    // The rest of the current block up to its last instruction is a
    // straight run of fetches; next() emits the last one, so it stays
    // the one place that leaves a block.
    std::size_t i = 0;
    while (i < n) {
        const Block &blk = blockAt(cur_.function, cur_.block);
        const std::size_t run = std::min<std::size_t>(
            n - i, blk.instructions - 1 - cur_.instr);
        Addr pc = blk.start + Addr{cur_.instr} * kInstrBytes;
        for (const std::size_t end = i + run; i < end; ++i) {
            dst[i] = {pc, AccessType::Fetch};
            pc += kInstrBytes;
        }
        cur_.instr += static_cast<std::uint32_t>(run);
        if (i < n)
            dst[i++] = InstructionStream::next();
    }
}

} // namespace bsim
