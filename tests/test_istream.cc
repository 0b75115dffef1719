/** Unit tests for the synthetic instruction-fetch stream. */

#include <gtest/gtest.h>

#include <set>

#include "workload/istream.hh"

namespace bsim {
namespace {

CodeLayout
smallLayout()
{
    CodeLayout l;
    l.codeBase = 0x400000;
    l.numFunctions = 4;
    l.functionSpacing = 1024;
    l.blocksPerFunction = 6;
    l.avgBlockInstructions = 6.0;
    l.callProb = 0.15;
    l.loopProb = 0.4;
    return l;
}

TEST(IStream, AllFetchesAreFetchType)
{
    InstructionStream s(smallLayout(), 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(s.next().type, AccessType::Fetch);
}

TEST(IStream, PcsStayInCodeImage)
{
    const CodeLayout l = smallLayout();
    InstructionStream s(l, 2);
    const Addr lo = l.codeBase;
    const Addr hi = l.codeBase + l.numFunctions * l.functionSpacing;
    for (int i = 0; i < 20000; ++i) {
        const Addr pc = s.next().addr;
        EXPECT_GE(pc, lo);
        EXPECT_LT(pc, hi);
        EXPECT_EQ(pc % 4, 0u); // instruction aligned
    }
}

TEST(IStream, SequentialWithinBlocks)
{
    InstructionStream s(smallLayout(), 3);
    Addr prev = s.next().addr;
    int sequential = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const Addr pc = s.next().addr;
        sequential += (pc == prev + 4);
        prev = pc;
    }
    // Most fetches fall through within a basic block.
    EXPECT_GT(sequential, n / 2);
}

TEST(IStream, DeterministicFromSeed)
{
    InstructionStream a(smallLayout(), 7), b(smallLayout(), 7);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(a.next().addr, b.next().addr);
}

TEST(IStream, ResetReplaysExactly)
{
    // A replay is a second stream built with the same seed; the walk
    // of the first does not leak into it.
    InstructionStream s(smallLayout(), 9);
    std::vector<Addr> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(s.next().addr);
    InstructionStream replay(smallLayout(), 9);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(replay.next().addr, first[i]);
}

TEST(IStream, VisitsMultipleFunctions)
{
    const CodeLayout l = smallLayout();
    InstructionStream s(l, 11);
    std::set<Addr> funcs;
    for (int i = 0; i < 50000; ++i)
        funcs.insert((s.next().addr - l.codeBase) / l.functionSpacing);
    EXPECT_EQ(funcs.size(), l.numFunctions);
}

TEST(IStream, FootprintScalesWithLayout)
{
    CodeLayout small = smallLayout();
    CodeLayout big = smallLayout();
    big.numFunctions = 12;
    big.blocksPerFunction = 16;
    big.functionSpacing = 32 * 1024;
    InstructionStream s_small(small, 1), s_big(big, 1);
    EXPECT_GT(s_big.codeFootprint(), s_small.codeFootprint());
    // The tiny layout fits comfortably in an 8 kB I$.
    EXPECT_LT(s_small.codeFootprint(), 8u * 1024);
}

TEST(IStream, AliasedLayoutThrashesDirectMappedIcache)
{
    // Functions spaced at the 32 kB aliasing stride produce I$ conflict
    // misses; the small layout does not (the paper's reported vs
    // excluded benchmark split).
    CodeLayout aliased = smallLayout();
    aliased.numFunctions = 8;
    aliased.functionSpacing = 32 * 1024;
    aliased.blocksPerFunction = 12;
    aliased.callProb = 0.2;
    InstructionStream hot(aliased, 5);
    InstructionStream cold(smallLayout(), 5);

    auto miss_rate = [](InstructionStream &s) {
        // Tiny direct-mapped I$ model: map of line -> resident tag.
        std::vector<Addr> lines(512, ~Addr{0});
        std::uint64_t misses = 0;
        const std::uint64_t n = 200000;
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr block = s.next().addr >> 5;
            const std::size_t set = block & 511;
            if (lines[set] != block) {
                lines[set] = block;
                ++misses;
            }
        }
        return double(misses) / double(n);
    };
    EXPECT_GT(miss_rate(hot), 20 * miss_rate(cold) + 0.001);
}

} // namespace
} // namespace bsim
