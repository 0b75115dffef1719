/** Unit tests for the related-work comparators: column-associative,
 *  skewed-associative and HAC caches, plus the empty-frame edge every
 *  registered organisation shares. */

#include <gtest/gtest.h>

#include "alt/column_assoc_cache.hh"
#include "alt/hac_cache.hh"
#include "alt/skewed_assoc_cache.hh"
#include "cache/set_assoc_cache.hh"
#include "common/random.hh"
#include "mem/main_memory.hh"
#include "sim/cache_spec.hh"
#include "verify/tracking_memory.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

MemAccess
rd(Addr a)
{
    return {a, AccessType::Read};
}

CacheGeometry
geom16k(std::uint32_t ways = 1)
{
    return CacheGeometry(16 * 1024, 32, ways);
}

// ------------------------------------------------- column associative

TEST(ColumnAssoc, ConflictPairResolvedByRehash)
{
    ColumnAssocCache c("col", geom16k(), 1, nullptr);
    const Addr A = 0x0000, B = A + 16 * 1024;
    EXPECT_FALSE(c.access(rd(A)).hit);
    EXPECT_FALSE(c.access(rd(B)).hit); // A demoted to rehash slot
    EXPECT_TRUE(c.contains(A));
    EXPECT_TRUE(c.contains(B));
    int hits = 0;
    for (int i = 0; i < 20; ++i) {
        hits += c.access(rd(A)).hit;
        hits += c.access(rd(B)).hit;
    }
    EXPECT_EQ(hits, 40);
}

TEST(ColumnAssoc, RehashHitCostsExtraAndSwapsBack)
{
    ColumnAssocCache c("col", geom16k(), 1, nullptr);
    const Addr A = 0x0000, B = A + 16 * 1024;
    c.access(rd(A));
    c.access(rd(B)); // B primary, A rehashed
    const AccessOutcome o = c.access(rd(A));
    EXPECT_TRUE(o.hit);
    EXPECT_EQ(o.latency, 2u); // second-probe penalty
    // A swapped back to primary: next access is a one-cycle hit.
    EXPECT_EQ(c.access(rd(A)).latency, 1u);
}

TEST(ColumnAssoc, RehashedResidentEvictedFirstNoSecondProbe)
{
    ColumnAssocCache c("col", geom16k(), 1, nullptr);
    const Addr A = 0x0000;               // primary set s
    const Addr B = A + 16 * 1024;        // same primary set
    const Addr C = A + 8 * 1024;         // primary set = rehash(s)
    c.access(rd(A));
    c.access(rd(B)); // A rehashed into set s^256 (C's primary slot!)
    // C misses and finds a rehashed block in its primary slot: the
    // rehashed block (A) is evicted without a second probe.
    EXPECT_FALSE(c.access(rd(C)).hit);
    EXPECT_TRUE(c.contains(C));
    EXPECT_FALSE(c.contains(A));
    EXPECT_EQ(c.rehashHits(), 0u);
}

TEST(ColumnAssoc, BeatsDirectMappedOnTwoWayConflicts)
{
    ColumnAssocCache col("col", geom16k(), 1, nullptr);
    SetAssocCache dm("dm", geom16k(), 1, nullptr);
    Rng rng(5);
    // Pairs of conflicting addresses in random sets.
    for (int i = 0; i < 50000; ++i) {
        const Addr set = rng.nextBounded(256) * 32; // low half sets only
        const Addr a = set + (rng.nextBool(0.5) ? 16 * 1024 : 0);
        col.access(rd(a));
        dm.access(rd(a));
    }
    EXPECT_LT(col.stats().missRate(), dm.stats().missRate() * 0.5);
}

TEST(ColumnAssoc, DirtyEvictionsWriteBack)
{
    MainMemory mem(100);
    ColumnAssocCache c("col", geom16k(), 1, &mem);
    const Addr A = 0x0000, B = A + 16 * 1024, C = B + 16 * 1024;
    c.access({A, AccessType::Write});
    c.access({B, AccessType::Write}); // A (dirty) -> rehash slot
    c.access({C, AccessType::Write}); // A evicted from rehash slot
    EXPECT_GE(mem.writebacks(), 1u);
}

// ---------------------------------------------------- skewed associative

TEST(Skewed, BankFunctionsDiffer)
{
    SkewedAssocCache c("sk", geom16k(2), 1, nullptr);
    int differ = 0;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.next() & mask(30);
        differ += c.bankIndex(0, a) != c.bankIndex(1, a);
    }
    EXPECT_GT(differ, 150);
}

TEST(Skewed, BankIndexInRange)
{
    SkewedAssocCache c("sk", geom16k(2), 1, nullptr);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & mask(34);
        EXPECT_LT(c.bankIndex(0, a), c.geometry().numSets());
        EXPECT_LT(c.bankIndex(1, a), c.geometry().numSets());
    }
}

TEST(Skewed, HitAfterFill)
{
    SkewedAssocCache c("sk", geom16k(2), 1, nullptr);
    EXPECT_FALSE(c.access(rd(0x1234)).hit);
    EXPECT_TRUE(c.access(rd(0x1234)).hit);
    EXPECT_TRUE(c.contains(0x1234));
}

TEST(Skewed, BreaksPowerOfTwoConflicts)
{
    // Addresses conflicting in a conventional cache (same index, stride =
    // cache way size) spread across sets in a skewed cache.
    SkewedAssocCache sk("sk", geom16k(2), 1, nullptr);
    SetAssocCache w2("2w", geom16k(2), 1, nullptr);
    for (int round = 0; round < 200; ++round)
        for (Addr i = 0; i < 6; ++i) {
            sk.access(rd(i * 8 * 1024)); // 2-way: 8 kB per bank
            w2.access(rd(i * 8 * 1024));
        }
    EXPECT_LT(sk.stats().missRate(), w2.stats().missRate() * 0.5);
}

TEST(Skewed, DirtyWritebacks)
{
    MainMemory mem(100);
    SkewedAssocCache c("sk", geom16k(2), 1, &mem);
    // The skewing functions only see the low 16 block-number bits, so
    // addresses differing solely above bit 21 collide in BOTH banks;
    // four dirty blocks into a two-slot pool must evict dirty data.
    for (int round = 0; round < 2; ++round)
        for (Addr i = 0; i < 4; ++i)
            c.access({i << 21, AccessType::Write});
    EXPECT_GE(mem.writebacks(), 1u);
}

// --------------------------------------------------------------- HAC

TEST(Hac, GeometryFromSubarray)
{
    // Section 6.7: 16 kB, 32 B lines, 1 kB subarrays -> 32-way.
    HacCache c("hac", 16 * 1024, 32, 1024, 1, nullptr);
    EXPECT_EQ(c.associativity(), 32u);
    EXPECT_EQ(c.geometry().numSets(), 16u);
}

TEST(Hac, CamPatternMuchWiderThanBcachePd)
{
    HacCache c("hac", 16 * 1024, 32, 1024, 1, nullptr);
    // tag (32 - 5 - 4 = 23) + 3 = 26 bits, versus the B-Cache's 6.
    EXPECT_EQ(c.camPatternBits(32), 26u);
}

TEST(Hac, AbsorbsDeepConflicts)
{
    HacCache hac("hac", 16 * 1024, 32, 1024, 1, nullptr);
    SetAssocCache dm("dm", geom16k(), 1, nullptr);
    for (int round = 0; round < 500; ++round)
        for (Addr i = 0; i < 16; ++i) {
            hac.access(rd(i * 16 * 1024));
            dm.access(rd(i * 16 * 1024));
        }
    EXPECT_LT(hac.stats().missRate(), 0.01);
    EXPECT_GT(dm.stats().missRate(), 0.9);
}

TEST(HacDeathTest, SubarrayMustHoldWholeLines)
{
    EXPECT_FATAL(HacCache("hac", 16 * 1024, 32, 48, 1, nullptr),
                 "whole number of lines");
}

// ------------------------------------------------- empty-frame sentinel

TEST(TagStoreSentinel, AllOnesAddressIsAnOrdinaryBlock)
{
    // An empty frame holds the all-ones key. With 2-byte lines every key
    // still drops an address bit, so the block at the top of the address
    // space (and block 0) must behave like any other: absent when cold,
    // resident once written, written back exactly once when evicted.
    std::vector<std::string> specs;
    for (const CacheSpecEntry &e : cacheSpecEntries())
        specs.push_back(e.name + ":1kB,line=2");
    specs.push_back("sa:8,4w,line=2"); // one set: the tag is addr >> 1
    const Addr top = ~Addr{0};
    const Addr top_block = top & ~Addr{1};

    for (const std::string &spec : specs) {
        SCOPED_TRACE(spec);
        TrackingMemory mem;
        auto c = parseCacheSpec(spec).build("edge", 1, &mem);
        EXPECT_FALSE(c->contains(top));
        EXPECT_FALSE(c->contains(0));

        // (XOR folding maps the two blocks to one frame, so the second
        // write may already evict the first.)
        c->access({top, AccessType::Write});
        EXPECT_TRUE(c->contains(top));
        c->access({0, AccessType::Write});
        EXPECT_TRUE(c->contains(0));

        // Read traffic over fresh blocks evicts both; reads never dirty
        // a line, so the only writebacks of the two blocks are their
        // evictions.
        Addr a = 2;
        for (; a < (1u << 20) && (c->contains(top) || c->contains(0));
             a += 2)
            c->access(rd(a));
        EXPECT_FALSE(c->contains(top));
        EXPECT_FALSE(c->contains(0));
        for (const Addr end = a + 4096; a < end; a += 2)
            c->access(rd(a));
        EXPECT_EQ(mem.writesTo(top_block), 1u);
        EXPECT_EQ(mem.writesTo(0), 1u);
    }
}

} // namespace
} // namespace bsim
