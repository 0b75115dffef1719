/** Unit tests for the B-Cache, including the paper's Figure 1(c) worked
 *  example (Section 2.3) traced access by access. */

#include <gtest/gtest.h>

#include <type_traits>

#include "bcache/bcache.hh"
#include "mem/main_memory.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

MemAccess
rd(Addr a)
{
    return {a, AccessType::Read};
}

/**
 * The paper's toy B-Cache: 8 blocks, 2-bit PI + 2-bit NPI (MF = 2,
 * BAS = 2). We use 8-byte lines, so the paper's block addresses scale
 * by 8.
 */
BCacheParams
toyParams()
{
    BCacheParams p;
    p.sizeBytes = 64;
    p.lineBytes = 8;
    p.mf = 2;
    p.bas = 2;
    p.repl = ReplPolicyKind::LRU;
    return p;
}

MemAccess
toy(Addr block)
{
    return rd(block * 8);
}

TEST(BCacheLayout, ToyExampleBits)
{
    const BCacheLayout l = deriveLayout(toyParams());
    EXPECT_EQ(l.oi, 3u);
    EXPECT_EQ(l.npiBits, 2u);
    EXPECT_EQ(l.piBits, 2u);
    EXPECT_EQ(l.groups, 4u);
    EXPECT_EQ(l.bas, 2u);
}

TEST(BCacheLayout, Paper16kDesign)
{
    // Section 3.2: MF = 8, BAS = 8 at 16 kB/32 B gives PI = 6, NPI = 6.
    BCacheParams p;
    p.sizeBytes = 16 * 1024;
    p.lineBytes = 32;
    p.mf = 8;
    p.bas = 8;
    const BCacheLayout l = deriveLayout(p);
    EXPECT_EQ(l.oi, 9u);
    EXPECT_EQ(l.piBits, 6u);
    EXPECT_EQ(l.npiBits, 6u);
    EXPECT_EQ(l.groups, 64u);
    // Tag shortens by 3 bits: 18 -> 15 for 32-bit addresses.
    EXPECT_EQ(l.baselineTagBits(32, 5), 18u);
    EXPECT_EQ(l.bcacheTagBits(32, 5), 15u);
}

TEST(BCacheLayout, MfAndBasOneIsDirectMapped)
{
    BCacheParams p = toyParams();
    p.mf = 1;
    p.bas = 1;
    const BCacheLayout l = deriveLayout(p);
    EXPECT_EQ(l.piBits, 0u);
    EXPECT_EQ(l.npiBits, l.oi);
    EXPECT_EQ(l.groups, 8u);
}

TEST(BCache, Figure1cWorkedExample)
{
    BCache c("toy", toyParams());

    // Cold start: 0, 1, 8, 9 are PD misses programming the decoders.
    for (Addr a : {0, 1, 8, 9}) {
        EXPECT_FALSE(c.access(toy(a)).hit);
        EXPECT_EQ(c.lastOutcome(), PdOutcome::Miss);
    }
    // The thrashing sequence now hits like the 2-way cache (Section 2.3).
    for (int round = 0; round < 3; ++round)
        for (Addr a : {0, 1, 8, 9}) {
            EXPECT_TRUE(c.access(toy(a)).hit);
            EXPECT_EQ(c.lastOutcome(), PdOutcome::HitAndCacheHit);
        }
    EXPECT_EQ(c.stats().misses, 4u);

    // Address 25 (11001): NPI 01, PI 10 -- a PD hit but a cache miss, so
    // it must replace address 9 (unique-decoding constraint).
    EXPECT_FALSE(c.access(toy(25)).hit);
    EXPECT_EQ(c.lastOutcome(), PdOutcome::HitButCacheMiss);
    EXPECT_FALSE(c.contains(toy(9).addr));
    EXPECT_TRUE(c.contains(toy(25).addr));
    EXPECT_TRUE(c.contains(toy(1).addr)); // 1 survives

    // Address 13 (01101): PI 11 matches no PD entry -- the miss is
    // predetermined; the victim comes from the replacement policy.
    EXPECT_FALSE(c.access(toy(13)).hit);
    EXPECT_EQ(c.lastOutcome(), PdOutcome::Miss);
    EXPECT_TRUE(c.contains(toy(13).addr));

    EXPECT_TRUE(c.checkUniqueDecoding());
}

TEST(BCache, PdStatsSplitMisses)
{
    BCache c("toy", toyParams());
    for (Addr a : {0, 1, 8, 9})
        c.access(toy(a));
    c.access(toy(25)); // PD hit, cache miss
    c.access(toy(13)); // PD miss
    EXPECT_EQ(c.pdStats().pdHitCacheMiss, 1u);
    EXPECT_EQ(c.pdStats().pdMiss, 5u);
    EXPECT_EQ(c.pdStats().pdHitCacheMiss + c.pdStats().pdMiss,
              c.stats().misses);
    EXPECT_NEAR(c.pdStats().pdHitRateOnMiss(), 1.0 / 6.0, 1e-12);
    EXPECT_NEAR(c.pdStats().missPredictionRate(), 5.0 / 6.0, 1e-12);
}

TEST(BCache, HitsAreOneCycle)
{
    MainMemory mem(100);
    BCache c("b", toyParams(), 1, &mem);
    c.access(toy(0));
    EXPECT_EQ(c.access(toy(0)).latency, 1u);
}

TEST(BCache, MissLatencyIncludesRefill)
{
    MainMemory mem(100);
    BCache c("b", toyParams(), 1, &mem);
    EXPECT_EQ(c.access(toy(0)).latency, 101u);
}

TEST(BCache, DirtyEvictionWritesBackCorrectAddress)
{
    MainMemory mem(100);
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.mf = 4;
    p.bas = 4;
    BCache c("b", p, 1, &mem);
    c.access({0x40, AccessType::Write});
    // Fill the whole group (NPI of 0x40) with conflicting PD misses to
    // force the dirty line out eventually.
    const BCacheLayout l = c.layout();
    const Addr group_stride = 32ull << l.npiBits;
    for (Addr i = 1; i <= l.bas + 1; ++i)
        c.access(rd(0x40 + i * group_stride * (1ull << l.piBits)));
    EXPECT_GE(mem.writebacks(), 1u);
}

TEST(BCache, WritebackFromAboveMarksDirty)
{
    MainMemory mem(100);
    BCache c("b", toyParams(), 1, &mem);
    c.access(toy(0));
    c.writeback(toy(0).addr);
    // Force 0 out: PD-hit replacement by the MF-aliased address.
    // Toy: PI of block 0 is 00; block 16 (10000) has NPI 00, PI 00 too.
    EXPECT_FALSE(c.access(toy(16)).hit);
    EXPECT_EQ(c.lastOutcome(), PdOutcome::HitButCacheMiss);
    EXPECT_EQ(mem.writebacks(), 1u);
}

TEST(BCache, LimitedMappingDoesNotLoseAccesses)
{
    BCache c("b", toyParams());
    // Every access is either a hit or a miss; PD misses are not dropped.
    for (Addr a = 0; a < 200; ++a)
        c.access(toy(a % 40));
    EXPECT_EQ(c.stats().accesses, 200u);
    EXPECT_EQ(c.stats().hits + c.stats().misses, 200u);
}

TEST(BCache, ColdStartFillsInvalidLinesFirst)
{
    BCache c("b", toyParams());
    // Two blocks with the same NPI but different PI fill both ways.
    c.access(toy(0));
    c.access(toy(8));
    EXPECT_TRUE(c.contains(toy(0).addr));
    EXPECT_TRUE(c.contains(toy(8).addr));
    EXPECT_EQ(c.validLines(), 2u);
}

TEST(BCache, ResetRestoresColdState)
{
    BCache c("b", toyParams());
    c.access(toy(0));
    c.reset();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_EQ(c.pdStats().pdMiss, 0u);
    EXPECT_FALSE(c.contains(toy(0).addr));
}

/**
 * Layout arithmetic invariants across the whole design space. gtest names
 * each instance by the bytes of its parameter, so the struct carries no
 * padding: indeterminate padding bytes would change the test IDs from
 * build to build. `unused` fills what would be the tail padding.
 */
struct LayoutCase
{
    std::uint64_t size;
    std::uint32_t line;
    std::uint32_t mf;
    std::uint32_t bas;
    std::uint32_t unused = 0;
};
static_assert(std::has_unique_object_representations_v<LayoutCase>);

class BCacheLayoutSweep : public ::testing::TestWithParam<LayoutCase>
{
};

TEST_P(BCacheLayoutSweep, DerivedBitsAreConsistent)
{
    const auto c = GetParam();
    BCacheParams p;
    p.sizeBytes = c.size;
    p.lineBytes = c.line;
    p.mf = c.mf;
    p.bas = c.bas;
    const BCacheLayout l = deriveLayout(p);
    // Index lengthened by exactly log2(MF); pools partition the lines.
    EXPECT_EQ(l.piBits + l.npiBits, l.oi + l.mfLog);
    EXPECT_EQ(l.groups * l.bas, bcacheArrayGeometry(p).numLines());
    EXPECT_EQ(std::uint64_t{1} << l.mfLog, c.mf);
    EXPECT_EQ(l.bas, c.bas);
    // Paper definitions: MF = 2^(PI+NPI)/2^OI, BAS = 2^OI/2^NPI.
    EXPECT_EQ(1ull << (l.piBits + l.npiBits - l.oi), c.mf);
    EXPECT_EQ(1ull << (l.oi - l.npiBits), c.bas);
}

TEST_P(BCacheLayoutSweep, ColdFillThenFullHits)
{
    const auto c = GetParam();
    BCacheParams p;
    p.sizeBytes = c.size;
    p.lineBytes = c.line;
    p.mf = c.mf;
    p.bas = c.bas;
    BCache bc("b", p);
    // Fill with a stride-one block sweep exactly the cache's size: every
    // block lands in a distinct (group, PI) slot, so a second sweep hits
    // completely.
    const std::uint64_t blocks = bc.geometry().numLines();
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_FALSE(
            bc.access({i * c.line, AccessType::Read}).hit);
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_TRUE(bc.access({i * c.line, AccessType::Read}).hit);
    EXPECT_TRUE(bc.checkUniqueDecoding());
    EXPECT_EQ(bc.validLines(), blocks);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, BCacheLayoutSweep,
    ::testing::Values(LayoutCase{8 * 1024, 32, 8, 8},
                      LayoutCase{16 * 1024, 32, 8, 8},
                      LayoutCase{16 * 1024, 32, 2, 4},
                      LayoutCase{16 * 1024, 32, 16, 8},
                      LayoutCase{16 * 1024, 32, 2, 32},
                      LayoutCase{32 * 1024, 32, 8, 8},
                      LayoutCase{32 * 1024, 64, 4, 4},
                      LayoutCase{16 * 1024, 16, 8, 8},
                      LayoutCase{1024, 32, 4, 2}));

TEST(BCacheDeathTest, RejectsBadParameters)
{
    BCacheParams p = toyParams();
    p.mf = 3;
    EXPECT_FATAL(deriveLayout(p), "MF must be a power of two");
    p = toyParams();
    p.bas = 5;
    EXPECT_FATAL(deriveLayout(p), "BAS must be a power of two");
    p = toyParams();
    p.bas = 16; // > 8 sets
    EXPECT_FATAL(deriveLayout(p), "exceeds the number of sets");
}

} // namespace
} // namespace bsim
