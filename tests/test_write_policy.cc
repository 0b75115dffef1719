/** Unit tests for the write-through / no-write-allocate mode of the
 *  set-associative cache and the B-Cache. */

#include <gtest/gtest.h>

#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "common/bits.hh"
#include "common/random.hh"
#include "mem/main_memory.hh"
#include "sim/config.hh"
#include "verify/tracking_memory.hh"

namespace bsim {
namespace {

constexpr auto kWT = WritePolicy::WriteThroughNoAllocate;

MemAccess
wr(Addr a)
{
    return {a, AccessType::Write};
}

MemAccess
rd(Addr a)
{
    return {a, AccessType::Read};
}

TEST(WritePolicyNames, Render)
{
    EXPECT_STREQ(writePolicyName(WritePolicy::WriteBackAllocate),
                 "write-back");
    EXPECT_STREQ(writePolicyName(kWT), "write-through");
}

TEST(WtSetAssoc, WriteMissDoesNotAllocate)
{
    MainMemory mem(10);
    SetAssocCache c("c", CacheGeometry(1024, 32, 2), 1, &mem,
                    ReplPolicyKind::LRU, 1, kWT);
    EXPECT_FALSE(c.access(wr(0x100)).hit);
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_EQ(c.stats().writethroughs, 1u);
    EXPECT_EQ(c.stats().refills, 0u);
    EXPECT_EQ(mem.writebacks(), 1u); // store forwarded
}

TEST(WtSetAssoc, WriteHitForwardsAndStaysClean)
{
    MainMemory mem(10);
    SetAssocCache c("c", CacheGeometry(1024, 32, 2), 1, &mem,
                    ReplPolicyKind::LRU, 1, kWT);
    c.access(rd(0x100)); // allocate via read
    EXPECT_TRUE(c.access(wr(0x104)).hit);
    EXPECT_EQ(c.stats().writethroughs, 1u);
    // Evicting the line later must not write it back (it is clean).
    c.access(rd(0x100 + 1024));
    c.access(rd(0x100 + 2048));
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(WtSetAssoc, ReadsStillAllocate)
{
    SetAssocCache c("c", CacheGeometry(1024, 32, 2), 1, nullptr,
                    ReplPolicyKind::LRU, 1, kWT);
    EXPECT_FALSE(c.access(rd(0x200)).hit);
    EXPECT_TRUE(c.access(rd(0x200)).hit);
}

TEST(WtSetAssoc, MissRateUnaffectedForReads)
{
    // Read behaviour is identical under both policies.
    SetAssocCache wb("wb", CacheGeometry(1024, 32, 2), 1, nullptr);
    SetAssocCache wt("wt", CacheGeometry(1024, 32, 2), 1, nullptr,
                     ReplPolicyKind::LRU, 1, kWT);
    Rng rng(4);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.next() & mask(13);
        EXPECT_EQ(wb.access(rd(a)).hit, wt.access(rd(a)).hit);
    }
}

TEST(WtBCache, WriteMissLeavesPdUntouched)
{
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.mf = 4;
    p.bas = 4;
    p.writePolicy = kWT;
    MainMemory mem(10);
    BCache c("bc", p, 1, &mem);

    EXPECT_FALSE(c.access(wr(0x40)).hit);
    EXPECT_EQ(c.validLines(), 0u); // nothing allocated
    EXPECT_EQ(c.stats().writethroughs, 1u);
    EXPECT_TRUE(c.checkUniqueDecoding());
}

TEST(WtBCache, PdHitWriteMissKeepsResidentBlock)
{
    BCacheParams p;
    p.sizeBytes = 64;
    p.lineBytes = 8;
    p.mf = 2;
    p.bas = 2;
    p.writePolicy = kWT;
    BCache c("bc", p);

    c.access(rd(0 * 8));       // resident, PD pattern 0
    c.access(wr(16 * 8));      // same PD pattern, different tag
    EXPECT_TRUE(c.contains(0)); // block 0 survived the store miss
    EXPECT_FALSE(c.contains(16 * 8));
    EXPECT_EQ(c.pdStats().pdHitCacheMiss, 1u);
}

TEST(WtBCache, WriteHitForwards)
{
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.mf = 4;
    p.bas = 4;
    p.writePolicy = kWT;
    MainMemory mem(10);
    BCache c("bc", p, 1, &mem);
    c.access(rd(0x80));
    EXPECT_TRUE(c.access(wr(0x84)).hit);
    EXPECT_EQ(mem.writebacks(), 1u);
    // No dirty evictions ever happen under WT.
    for (Addr i = 1; i < 40; ++i)
        c.access(rd(0x80 + i * 1024 * 16));
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(WtSetAssoc, WritebackFromAboveForwardsWithoutPhantomRefill)
{
    TrackingMemory mem;
    SetAssocCache c("c", CacheGeometry(1024, 32, 2), 1, &mem,
                    ReplPolicyKind::LRU, 1, kWT);
    // A dirty L1 victim arrives for a block this WT L2 does not hold:
    // no-write-allocate forwards it and installs nothing — and must not
    // count a refill for the line it never touched.
    c.writeback(0x300);
    EXPECT_FALSE(c.contains(0x300));
    EXPECT_EQ(c.stats().refills, 0u);
    EXPECT_EQ(c.stats().writethroughs, 1u);
    EXPECT_EQ(mem.writesTo(0x300), 1u);
}

TEST(WtBCache, WritebackFromAboveReachesMemory)
{
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.mf = 4;
    p.bas = 4;
    p.writePolicy = kWT;
    TrackingMemory mem;
    BCache c("bc", p, 1, &mem);

    // Miss case: the dirty data must reach memory, nothing may allocate.
    // The old code installed the block clean and forwarded nothing — the
    // write silently vanished.
    c.writeback(0x140);
    EXPECT_EQ(mem.writesTo(0x140), 1u) << "lost write";
    EXPECT_FALSE(c.contains(0x140));
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.stats().refills, 0u);

    // Hit case: forward too, and the resident copy stays clean.
    c.access(rd(0x140));
    c.writeback(0x140);
    EXPECT_EQ(mem.writesTo(0x140), 2u);
    EXPECT_TRUE(c.contains(0x140));
    for (Addr i = 1; i < 40; ++i)
        c.access(rd(0x140 + i * 1024 * 16)); // evict it
    EXPECT_EQ(c.stats().writebacks, 0u) << "WT line must stay clean";
}

TEST(WtHierarchy, DirtyL1VictimSurvivesWriteThroughL2)
{
    // L1: small write-back/write-allocate; L2: write-through B-Cache;
    // memory contents tracked per block. Dirtying a block in L1 and then
    // thrashing it out must land exactly one writeback of that block in
    // memory, whichever L2 organisation sits in the middle.
    BCacheParams p2;
    p2.sizeBytes = 4096;
    p2.lineBytes = 32;
    p2.mf = 4;
    p2.bas = 4;
    p2.writePolicy = kWT;

    TrackingMemory mem;
    BCache l2("l2", p2, 6, &mem);
    SetAssocCache l1("l1", CacheGeometry(256, 32, 1), 1, &l2);

    l1.access(wr(0x40)); // miss, allocate, dirty in L1
    EXPECT_EQ(mem.writesTo(0x40), 0u) << "write-back L1 holds the data";
    l1.access(rd(0x40 + 256));  // conflicts: evicts the dirty block
    EXPECT_EQ(mem.writesTo(0x40), 1u)
        << "dirty victim must pass through the WT L2 into memory";
    EXPECT_EQ(l1.stats().writebacks, 1u);
    EXPECT_EQ(l2.stats().writebacks, 0u) << "WT L2 never owns dirty data";

    // Same topology with a write-through SetAssoc L2.
    TrackingMemory mem2;
    SetAssocCache sa2("sa2", CacheGeometry(4096, 32, 2), 6, &mem2,
                      ReplPolicyKind::LRU, 1, kWT);
    SetAssocCache l1b("l1b", CacheGeometry(256, 32, 1), 1, &sa2);
    l1b.access(wr(0x40));
    l1b.access(rd(0x40 + 256));
    EXPECT_EQ(mem2.writesTo(0x40), 1u);
}

TEST(WtConfig, PropagatesThroughCacheConfig)
{
    CacheConfig cfg = parseCacheSpec("bcache:16kB,mf=8,bas=8");
    cfg.writePolicy = kWT;
    auto cache = cfg.build("x");
    auto *bc = dynamic_cast<BCache *>(cache.get());
    ASSERT_NE(bc, nullptr);
    EXPECT_EQ(bc->params().writePolicy, kWT);
}

} // namespace
} // namespace bsim
