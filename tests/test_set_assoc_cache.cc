/** Unit tests for the conventional set-associative cache (incl. the
 *  paper's Figure 1 direct-mapped and 2-way worked examples). */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.hh"
#include "common/random.hh"
#include "mem/main_memory.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

/** The paper's toy cache: 8 blocks total (Figure 1), modelled with
 *  8-byte lines; the toy addresses 0..9 scale by the line size. The
 *  direct-mapped variant has 8 sets, the 2-way variant 4 sets. */
CacheGeometry
toyGeom(std::uint32_t ways)
{
    return CacheGeometry(64, 8, ways);
}

MemAccess
rd(Addr a)
{
    return {a, AccessType::Read};
}

TEST(SetAssoc, Figure1aDirectMappedThrashes)
{
    // Address sequence 0,1,8,9,0,1,8,9 on an 8-set direct-mapped cache:
    // "the worst situation of having no cache hits at all" (Section 2.2).
    SetAssocCache c("dm", toyGeom(1), 1, nullptr);
    const Addr seq[] = {0, 1, 8, 9, 0, 1, 8, 9};
    for (Addr a : seq)
        EXPECT_FALSE(c.access(rd(a * 8)).hit);
    EXPECT_EQ(c.stats().misses, 8u);
}

TEST(SetAssoc, Figure1bTwoWayHitsAfterWarmup)
{
    // The 2-way cache "exhibits cache hits after the first four warm-up
    // accesses" on the same sequence.
    SetAssocCache c("2way", toyGeom(2), 1, nullptr);
    const Addr seq[] = {0, 1, 8, 9, 0, 1, 8, 9};
    int hits = 0;
    for (Addr a : seq)
        hits += c.access(rd(a * 8)).hit;
    EXPECT_EQ(hits, 4);
    EXPECT_EQ(c.stats().misses, 4u);
}

TEST(SetAssoc, HitOnRepeat)
{
    SetAssocCache c("c", CacheGeometry(16 * 1024, 32, 1), 1, nullptr);
    EXPECT_FALSE(c.access(rd(0x1000)).hit);
    EXPECT_TRUE(c.access(rd(0x1000)).hit);
    EXPECT_TRUE(c.access(rd(0x101f)).hit); // same line
    EXPECT_FALSE(c.access(rd(0x1020)).hit); // next line
}

TEST(SetAssoc, LruEvictionOrder)
{
    // 2-way, one set in play: A, B, C -> C evicts A (LRU).
    SetAssocCache c("c", CacheGeometry(16 * 1024, 32, 2), 1, nullptr);
    const Addr A = 0x0000, B = A + 16 * 1024, C = B + 16 * 1024;
    c.access(rd(A));
    c.access(rd(B));
    c.access(rd(C));
    EXPECT_FALSE(c.contains(A));
    EXPECT_TRUE(c.contains(B));
    EXPECT_TRUE(c.contains(C));
    // Touch B, then D evicts C.
    c.access(rd(B));
    const Addr D = C + 16 * 1024;
    c.access(rd(D));
    EXPECT_TRUE(c.contains(B));
    EXPECT_FALSE(c.contains(C));
}

TEST(SetAssoc, WriteMakesLineDirtyAndCausesWriteback)
{
    MainMemory mem(100);
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 1, &mem);
    const Addr A = 0x0000, B = A + 1024;
    c.access({A, AccessType::Write}); // write-allocate
    EXPECT_EQ(c.stats().refills, 1u);
    c.access(rd(B)); // evicts dirty A
    EXPECT_EQ(c.stats().writebacks, 1u);
    EXPECT_EQ(mem.writebacks(), 1u);
}

TEST(SetAssoc, CleanEvictionNoWriteback)
{
    MainMemory mem(100);
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 1, &mem);
    c.access(rd(0x0000));
    c.access(rd(0x0000 + 1024));
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(SetAssoc, MissLatencyIncludesNextLevel)
{
    MainMemory mem(100);
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 1, &mem);
    EXPECT_EQ(c.access(rd(0)).latency, 101u);
    EXPECT_EQ(c.access(rd(0)).latency, 1u);
}

TEST(SetAssoc, StandaloneMissCostsHitLatency)
{
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 3, nullptr);
    EXPECT_EQ(c.access(rd(0)).latency, 3u);
}

TEST(SetAssoc, StatsByAccessType)
{
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 1, nullptr);
    c.access({0, AccessType::Fetch});
    c.access({0, AccessType::Read});
    c.access({0, AccessType::Write});
    EXPECT_EQ(c.stats().fetchAccesses(), 1u);
    EXPECT_EQ(c.stats().fetchMisses(), 1u);
    EXPECT_EQ(c.stats().readAccesses(), 1u);
    EXPECT_EQ(c.stats().readMisses(), 0u);
    EXPECT_EQ(c.stats().writeAccesses(), 1u);
    EXPECT_EQ(c.stats().writeMisses(), 0u);
}

TEST(SetAssoc, ResetClearsContentsAndStats)
{
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 1, nullptr);
    c.access(rd(0));
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_FALSE(c.contains(0));
}

TEST(SetAssoc, WritebackFromAboveAllocates)
{
    SetAssocCache l2("l2", CacheGeometry(4096, 128, 2), 6, nullptr);
    l2.writeback(0x100);
    EXPECT_TRUE(l2.contains(0x100));
    // Writebacks are not demand accesses.
    EXPECT_EQ(l2.stats().accesses, 0u);
}

TEST(SetAssoc, FullyAssociativeNeverConflictMisses)
{
    // 32 lines fully associative: any 32-line working set fits.
    SetAssocCache c("fa", CacheGeometry(1024, 32, 32), 1, nullptr);
    for (int round = 0; round < 3; ++round)
        for (Addr i = 0; i < 32; ++i)
            c.access(rd(i * 4096)); // all map to set 0
    EXPECT_EQ(c.stats().misses, 32u); // compulsory only
}

/** Parameterized sweep: miss rate decreases (weakly) with associativity
 *  on a conflict-heavy sequence. */
class AssocSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(AssocSweep, ConflictStreamMissRate)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache c("c", CacheGeometry(16 * 1024, 32, ways), 1, nullptr);
    // 4 blocks aliasing in the same set, round robin.
    for (int i = 0; i < 4000; ++i)
        c.access(rd((i % 4) * 16 * 1024));
    if (ways >= 4)
        EXPECT_EQ(c.stats().misses, 4u);
    else
        EXPECT_GT(c.stats().missRate(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Ways, AssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 32u));

TEST(SetAssocDeathTest, VictimMainArrayMustBeDm)
{
    // Covered here to keep victim tests focused: geometry validation.
    EXPECT_FATAL(CacheGeometry(16, 32, 1), "smaller than one set");
}

} // namespace
} // namespace bsim
