/** Unit + property tests for CacheGeometry. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/geometry.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

TEST(Geometry, PaperBaseline16k)
{
    // 16 kB direct-mapped, 32 B lines: 512 sets, OI = 9 (Section 3.2).
    CacheGeometry g(16 * 1024, 32, 1);
    EXPECT_EQ(g.numSets(), 512u);
    EXPECT_EQ(g.offsetBits(), 5u);
    EXPECT_EQ(g.indexBits(), 9u);
    EXPECT_EQ(g.numLines(), 512u);
}

TEST(Geometry, EightWay16k)
{
    CacheGeometry g(16 * 1024, 32, 8);
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.indexBits(), 6u);
    EXPECT_EQ(g.numLines(), 512u);
}

TEST(Geometry, L2Config)
{
    // Paper Table 4: 256 kB, 128 B lines, 4-way.
    CacheGeometry g(256 * 1024, 128, 4);
    EXPECT_EQ(g.numSets(), 512u);
    EXPECT_EQ(g.offsetBits(), 7u);
}

TEST(Geometry, IndexTagSplit)
{
    CacheGeometry g(16 * 1024, 32, 1);
    const Addr a = 0x0040'1234;
    EXPECT_EQ(g.index(a), (a >> 5) & 0x1ff);
    EXPECT_EQ(g.tag(a), a >> 14);
    EXPECT_EQ(g.blockAlign(a), a & ~Addr{31});
    EXPECT_EQ(g.blockNumber(a), a >> 5);
}

TEST(Geometry, RebuildInvertsTagIndex)
{
    CacheGeometry g(16 * 1024, 32, 1);
    const Addr a = 0xdeadbe00;
    EXPECT_EQ(g.rebuild(g.tag(a), g.index(a)), g.blockAlign(a));
}

struct GeomCase
{
    std::uint64_t size;
    std::uint32_t line;
    std::uint32_t ways;
};

class GeometryProperty : public ::testing::TestWithParam<GeomCase>
{
};

TEST_P(GeometryProperty, SetsTimesWaysTimesLineIsSize)
{
    const auto p = GetParam();
    CacheGeometry g(p.size, p.line, p.ways);
    EXPECT_EQ(g.numSets() * p.ways * p.line, p.size);
}

TEST_P(GeometryProperty, RebuildRoundTripsRandomAddresses)
{
    const auto p = GetParam();
    CacheGeometry g(p.size, p.line, p.ways);
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & mask(40);
        EXPECT_EQ(g.rebuild(g.tag(a), g.index(a)), g.blockAlign(a));
    }
}

TEST_P(GeometryProperty, SameSetSameTagImpliesSameBlock)
{
    const auto p = GetParam();
    CacheGeometry g(p.size, p.line, p.ways);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & mask(40);
        const Addr b = rng.next() & mask(40);
        if (g.index(a) == g.index(b) && g.tag(a) == g.tag(b)) {
            EXPECT_EQ(g.blockAlign(a), g.blockAlign(b));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeometryProperty,
    ::testing::Values(GeomCase{8 * 1024, 32, 1},
                      GeomCase{16 * 1024, 32, 1},
                      GeomCase{16 * 1024, 32, 8},
                      GeomCase{32 * 1024, 32, 2},
                      GeomCase{32 * 1024, 64, 4},
                      GeomCase{256 * 1024, 128, 4},
                      GeomCase{1024, 16, 16}));

TEST(GeometryDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_FATAL(CacheGeometry(3000, 32, 1), "power of two");
    EXPECT_FATAL(CacheGeometry(16 * 1024, 33, 1), "power of two");
    EXPECT_FATAL(CacheGeometry(16 * 1024, 32, 3), "power of two");
}

TEST(GeometryDeathTest, RejectsDegenerateSize)
{
    EXPECT_FATAL(CacheGeometry(64, 64, 2), "smaller than one set");
}

} // namespace
} // namespace bsim
