/**
 * @file
 * Synthetic instruction-fetch stream: a Markov walk over a static control
 * flow graph of functions and basic blocks laid out in a configurable code
 * image. Fetches advance 4 bytes per instruction within a block.
 *
 * Instruction-cache conflict behaviour is controlled by the function
 * placement: `functionSpacing` chosen as a multiple of the I$ size makes
 * the hot functions collide in the same sets (the paper's reported I$
 * benchmarks), while a total footprint under the I$ size produces the
 * near-zero miss rates of the eleven excluded benchmarks.
 */

#ifndef BSIM_WORKLOAD_ISTREAM_HH
#define BSIM_WORKLOAD_ISTREAM_HH

#include <vector>

#include "common/random.hh"
#include "workload/access_stream.hh"

namespace bsim {

/** Static shape of the synthetic program's code. */
struct CodeLayout
{
    Addr codeBase = 0x0040'0000;
    std::uint32_t numFunctions = 8;
    /** Distance between consecutive function entry points. */
    std::uint64_t functionSpacing = 2048;
    std::uint32_t blocksPerFunction = 8;
    /** Mean instructions per basic block (geometric). */
    double avgBlockInstructions = 8.0;
    /** Probability a block ends in a call to another function. */
    double callProb = 0.10;
    /** Probability a block loops back to an earlier block. */
    double loopProb = 0.35;
    std::uint32_t maxCallDepth = 16;
};

class InstructionStream : public AccessStream
{
  public:
    InstructionStream(const CodeLayout &layout, std::uint64_t seed);

    MemAccess next() override;
    /** n next() calls; a block's body goes out as one straight run. */
    void nextBatch(MemAccess *dst, std::size_t n) override;

    /** Total static code bytes (for footprint checks in tests). */
    std::uint64_t codeFootprint() const;

    const CodeLayout &layout() const { return layout_; }

  private:
    struct Block
    {
        Addr start = 0;
        std::uint32_t instructions = 1;
    };

    struct Frame
    {
        std::uint32_t function;
        std::uint32_t block;
        std::uint32_t instr;
    };

    const Block &blockAt(std::uint32_t fn, std::uint32_t blk) const
    {
        return blocks_[fn * layout_.blocksPerFunction + blk];
    }

    /** Choose the next block within the current function. */
    std::uint32_t successor(std::uint32_t blk);

    CodeLayout layout_;
    Rng rng_;
    /** Loop-back distance; successor() caps it at the block index. */
    GeometricDraw loopBack_;
    std::vector<Block> blocks_;
    std::vector<Frame> callStack_;
    Frame cur_{};
};

} // namespace bsim

#endif // BSIM_WORKLOAD_ISTREAM_HH
