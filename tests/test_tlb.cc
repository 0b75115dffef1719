/** Unit tests for the TLB model and its synthetic page table. */

#include <gtest/gtest.h>

#include "cache/tlb.hh"
#include "common/bits.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

TEST(Tlb, PageOffsetPreserved)
{
    Tlb tlb(4096, 64, 4);
    for (Addr a : {0x1234ull, 0xdead'beefull, 0x7fff'0123ull})
        EXPECT_EQ(tlb.translate(a) & mask(12), a & mask(12));
}

TEST(Tlb, TranslationIsAFunction)
{
    Tlb tlb(4096, 64, 4);
    const Addr a = 0x4000'2345;
    const Addr p1 = tlb.translate(a);
    const Addr p2 = tlb.translate(a);
    const Addr p3 = tlb.translateFunctional(a);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(p1, p3);
}

TEST(Tlb, SamePageSameFrame)
{
    Tlb tlb(4096, 64, 4);
    EXPECT_EQ(tlb.translate(0x9000) >> 12, tlb.translate(0x9ffc) >> 12);
}

TEST(Tlb, FramesDecorrelatedFromVpn)
{
    // The hazard Section 6.8 cares about: bits above the page offset
    // change under translation for most pages.
    Tlb tlb(4096, 64, 4);
    int changed = 0;
    for (Addr vpn = 0; vpn < 256; ++vpn) {
        const Addr v = vpn << 12;
        if ((tlb.translateFunctional(v) >> 12) != vpn)
            ++changed;
    }
    EXPECT_GT(changed, 240);
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb(4096, 64, 4);
    tlb.translate(0x5000);
    EXPECT_TRUE(tlb.isCached(0x5abc));
    tlb.translate(0x5abc);
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, CapacityEviction)
{
    // 8-entry fully-associative TLB: 9 pages round robin always miss.
    Tlb tlb(4096, 8, 8);
    for (int round = 0; round < 3; ++round)
        for (Addr p = 0; p < 9; ++p)
            tlb.translate(p << 12);
    EXPECT_GT(tlb.stats().missRate(), 0.9);
}

TEST(Tlb, SmallWorkingSetHits)
{
    Tlb tlb(4096, 64, 4);
    for (int round = 0; round < 10; ++round)
        for (Addr p = 0; p < 16; ++p)
            tlb.translate(p << 12);
    EXPECT_EQ(tlb.stats().misses, 16u);
}

TEST(Tlb, ResetClears)
{
    Tlb tlb(4096, 64, 4);
    tlb.translate(0x5000);
    tlb.reset();
    EXPECT_EQ(tlb.stats().accesses, 0u);
    EXPECT_FALSE(tlb.isCached(0x5000));
}

TEST(Tlb, LargePages)
{
    Tlb tlb(64 * 1024, 32, 4);
    EXPECT_EQ(tlb.pageOffsetBits(), 16u);
    EXPECT_EQ(tlb.translate(0x12345) & mask(16), 0x2345u);
}

TEST(TlbDeathTest, BadShapeIsFatal)
{
    EXPECT_FATAL(Tlb(4096, 48, 4), "bad TLB shape");
    EXPECT_FATAL(Tlb(3000, 64, 4), "power of two");
}

} // namespace
} // namespace bsim
