/** Unit tests for the two-level hierarchy (paper Table 4 memory system). */

#include <gtest/gtest.h>

#include "bcache/bcache.hh"
#include "cache/hierarchy.hh"
#include "sim/config.hh"

namespace bsim {
namespace {

CacheHierarchy
makeDmHierarchy()
{
    CacheHierarchy h;
    h.setL1I(parseCacheSpec("dm:16kB").build("L1I"));
    h.setL1D(parseCacheSpec("dm:16kB").build("L1D"));
    return h;
}

TEST(Hierarchy, DefaultsMatchPaperTable4)
{
    CacheHierarchy h;
    EXPECT_EQ(h.params().l2SizeBytes, 256u * 1024);
    EXPECT_EQ(h.params().l2LineBytes, 128u);
    EXPECT_EQ(h.params().l2Ways, 4u);
    EXPECT_EQ(h.params().l2HitLatency, 6u);
    EXPECT_EQ(h.params().memLatency, 100u);
    EXPECT_EQ(h.l2().geometry().numSets(), 512u);
}

TEST(Hierarchy, ColdMissLatencyAddsUp)
{
    CacheHierarchy h = makeDmHierarchy();
    // L1 miss + L2 miss + memory: 1 + 6 + 100.
    EXPECT_EQ(h.load(0x1000).latency, 107u);
    // L1 hit: 1 cycle.
    EXPECT_EQ(h.load(0x1000).latency, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchy h = makeDmHierarchy();
    h.load(0x0000);
    h.load(0x0000 + 16 * 1024); // evicts from L1, block still in L2
    const AccessOutcome o = h.load(0x0000);
    EXPECT_FALSE(o.hit);
    EXPECT_EQ(o.latency, 7u); // 1 (L1) + 6 (L2 hit)
}

TEST(Hierarchy, L2SeesOnlyL1Misses)
{
    CacheHierarchy h = makeDmHierarchy();
    for (int i = 0; i < 10; ++i)
        h.load(0x40);
    EXPECT_EQ(h.l1d().stats().accesses, 10u);
    EXPECT_EQ(h.l1d().stats().misses, 1u);
    EXPECT_EQ(h.l2().stats().accesses, 1u);
}

TEST(Hierarchy, SharedL2ServesBothL1s)
{
    CacheHierarchy h = makeDmHierarchy();
    h.fetch(0x2000); // brings the L2 block (128 B) in
    const AccessOutcome o = h.load(0x2000);
    EXPECT_EQ(o.latency, 7u); // L1D miss, L2 hit
    EXPECT_EQ(h.l2().stats().hits, 1u);
}

TEST(Hierarchy, DirtyL1EvictionReachesL2NotMemory)
{
    CacheHierarchy h = makeDmHierarchy();
    h.store(0x0000);
    h.load(0x0000 + 16 * 1024); // evict dirty block
    EXPECT_EQ(h.l1d().stats().writebacks, 1u);
    EXPECT_EQ(h.memory().writebacks(), 0u); // absorbed by the L2
}

TEST(Hierarchy, WorksWithBCacheL1)
{
    CacheHierarchy h;
    h.setL1I(parseCacheSpec("bcache:16kB,mf=8,bas=8").build("L1I"));
    h.setL1D(parseCacheSpec("bcache:16kB,mf=8,bas=8").build("L1D"));
    EXPECT_EQ(h.load(0x1234).latency, 107u);
    EXPECT_EQ(h.load(0x1234).latency, 1u);
    auto *bc = dynamic_cast<BCache *>(&h.l1d());
    ASSERT_NE(bc, nullptr);
    EXPECT_EQ(bc->pdStats().pdMiss, 1u);
}

TEST(Hierarchy, ResetClearsAllLevels)
{
    CacheHierarchy h = makeDmHierarchy();
    h.load(0x1000);
    h.fetch(0x8000);
    h.reset();
    EXPECT_EQ(h.l1d().stats().accesses, 0u);
    EXPECT_EQ(h.l1i().stats().accesses, 0u);
    EXPECT_EQ(h.l2().stats().accesses, 0u);
    EXPECT_EQ(h.memory().totalAccesses(), 0u);
    EXPECT_EQ(h.load(0x1000).latency, 107u); // cold again
}

TEST(Hierarchy, MemoryAccessCounts)
{
    CacheHierarchy h = makeDmHierarchy();
    h.load(0x0000);
    h.load(0x0000); // hit, no memory traffic
    EXPECT_EQ(h.memory().reads(), 1u);
}

} // namespace
} // namespace bsim
