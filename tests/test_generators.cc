/** Unit tests for the synthetic address generators. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/generators.hh"

namespace bsim {
namespace {

TEST(Sequential, SweepsAndWraps)
{
    SequentialStream s(0x1000, 64, 8);
    for (int round = 0; round < 2; ++round)
        for (Addr i = 0; i < 8; ++i)
            EXPECT_EQ(s.next().addr, 0x1000 + i * 8);
}

TEST(Sequential, ResetRestarts)
{
    // Streams are single-pass: a replay is a second stream built with
    // the same parameters, and it starts where the first one did.
    SequentialStream a(0, 64, 8), b(0, 64, 8);
    a.next();
    a.next();
    EXPECT_EQ(b.next().addr, 0u);
    EXPECT_EQ(b.next().addr, 8u);
    EXPECT_EQ(a.next().addr, b.next().addr);
}

TEST(StridedConflict, VisitsAllLinesBeforeRepeating)
{
    StridedConflictStream s(0, 16 * 1024, 4, 2, 8);
    // First four accesses: one per conflicting address, word 0.
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(s.next().addr, i * 16 * 1024);
    // Next four: word 1 of each.
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(s.next().addr, i * 16 * 1024 + 8);
    // Then wraps to word 0 again.
    EXPECT_EQ(s.next().addr, 0u);
}

TEST(LoopNest, AddressArithmetic)
{
    // 2 arrays spaced 0x1000, 2 rows x 2 cols of 8-byte elements,
    // row stride 0x100.
    LoopNestStream s(0x10000, 2, 0x1000, 2, 2, 0x100, 8);
    EXPECT_EQ(s.next().addr, 0x10000u);          // a0 i0 j0
    EXPECT_EQ(s.next().addr, 0x11000u);          // a1 i0 j0
    EXPECT_EQ(s.next().addr, 0x10008u);          // a0 i0 j1
    EXPECT_EQ(s.next().addr, 0x11008u);          // a1 i0 j1
    EXPECT_EQ(s.next().addr, 0x10100u);          // a0 i1 j0
}

TEST(Zipf, StaysInRegionAndAligned)
{
    ZipfStream s(0x4000, 16, 256, 1.0, 9);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = s.next().addr;
        EXPECT_GE(a, 0x4000u);
        EXPECT_LT(a, 0x4000u + 16 * 256);
        EXPECT_EQ(a % 8, 0u);
    }
}

TEST(Zipf, SkewedPopularity)
{
    ZipfStream s(0, 64, 256, 1.2, 3);
    std::map<Addr, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[s.next().addr / 256];
    int max_count = 0;
    for (const auto &[blk, c] : counts)
        max_count = std::max(max_count, c);
    // The hottest block should dominate a uniform share by far.
    EXPECT_GT(max_count, 3 * 20000 / 64);
}

TEST(PointerChase, SingleCycleCoversAllNodes)
{
    PointerChaseStream s(0, 64, 64, 17);
    std::set<Addr> seen;
    for (int i = 0; i < 64; ++i)
        seen.insert(s.next().addr);
    EXPECT_EQ(seen.size(), 64u); // Sattolo cycle: all nodes visited
    // And it repeats the same cycle.
    EXPECT_EQ(s.next().addr, *seen.begin() + 0); // node 0 is the start
}

TEST(PointerChase, Deterministic)
{
    PointerChaseStream a(0, 32, 64, 5), b(0, 32, 64, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next().addr, b.next().addr);
}

TEST(Stack, StaysBelowTop)
{
    StackStream s(0x7fff0000, 16, 128, 21);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = s.next().addr;
        EXPECT_LT(a, 0x7fff0000u);
        EXPECT_GE(a, 0x7fff0000u - 16u * 128);
    }
}

TEST(Stack, MixesReadsAndWrites)
{
    StackStream s(0x7fff0000, 16, 128, 21);
    int writes = 0;
    for (int i = 0; i < 2000; ++i)
        writes += (s.next().type == AccessType::Write);
    EXPECT_GT(writes, 500);
    EXPECT_LT(writes, 1500);
}

TEST(Interleave, RespectsWeights)
{
    std::vector<AccessStreamPtr> kids;
    kids.push_back(std::make_unique<SequentialStream>(0x0, 64, 8));
    kids.push_back(std::make_unique<SequentialStream>(0x100000, 64, 8));
    InterleaveStream s(std::move(kids), {0.8, 0.2}, 7);
    int first = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        first += (s.next().addr < 0x100000);
    EXPECT_NEAR(double(first) / n, 0.8, 0.03);
}

TEST(Interleave, ResetReproducesSequence)
{
    // A replay is a second stream with the same children and seed.
    const auto make = [] {
        std::vector<AccessStreamPtr> kids;
        kids.push_back(std::make_unique<SequentialStream>(0x0, 64, 8));
        kids.push_back(
            std::make_unique<SequentialStream>(0x100000, 64, 8));
        return InterleaveStream(std::move(kids), {0.5, 0.5}, 7);
    };
    InterleaveStream a = make(), b = make();
    std::vector<Addr> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(a.next().addr);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(b.next().addr, first[i]);
}

TEST(WriteMix, ConvertsRequestedFraction)
{
    auto seq = std::make_unique<SequentialStream>(0, 4096, 8);
    WriteMixStream s(std::move(seq), 0.25, 13);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += (s.next().type == AccessType::Write);
    EXPECT_NEAR(double(writes) / n, 0.25, 0.02);
}

TEST(WriteMix, ZeroLeavesReadsAlone)
{
    auto seq = std::make_unique<SequentialStream>(0, 4096, 8);
    WriteMixStream s(std::move(seq), 0.0, 13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(s.next().type, AccessType::Read);
}

TEST(VectorStream, ReplaysAndWraps)
{
    VectorStream s({{0x10, AccessType::Read},
                    {0x20, AccessType::Write}});
    EXPECT_EQ(s.next().addr, 0x10u);
    EXPECT_EQ(s.next().addr, 0x20u);
    EXPECT_EQ(s.next().addr, 0x10u);
}

TEST(Drain, CollectsExactlyN)
{
    SequentialStream s(0, 4096, 8);
    const auto v = drain(s, 17);
    EXPECT_EQ(v.size(), 17u);
    EXPECT_EQ(v[0].addr, 0u);
}

} // namespace
} // namespace bsim
