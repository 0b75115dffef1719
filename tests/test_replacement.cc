/** Unit tests for the replacement policies. */

#include <gtest/gtest.h>

#include <set>

#include "cache/replacement.hh"
#include "common/random.hh"

namespace bsim {
namespace {

constexpr ReplPolicyKind kAllPolicies[] = {
    ReplPolicyKind::LRU, ReplPolicyKind::Random, ReplPolicyKind::FIFO,
    ReplPolicyKind::TreePLRU, ReplPolicyKind::NMRU};

TEST(ReplNames, RoundTrip)
{
    for (auto k : kAllPolicies)
        EXPECT_EQ(replPolicyFromName(replPolicyName(k)), k);
    EXPECT_EQ(replPolicyFromName("RAND"), ReplPolicyKind::Random);
    EXPECT_EQ(replPolicyFromName("tree-plru"), ReplPolicyKind::TreePLRU);
}

TEST(ReplNames, UnknownNameIsNullopt)
{
    EXPECT_FALSE(replPolicyFromName("belady").has_value());
    EXPECT_FALSE(replPolicyFromName("").has_value());
}

TEST(Lru, EvictsLeastRecentlyTouched)
{
    Replacement p(ReplPolicyKind::LRU, 1, 4);
    for (std::size_t w = 0; w < 4; ++w)
        p.fill(0, w);
    p.touch(0, 0); // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(p.victim(0), 1u);
    p.touch(0, 1);
    EXPECT_EQ(p.victim(0), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    Replacement p(ReplPolicyKind::LRU, 2, 2);
    p.fill(0, 0);
    p.fill(0, 1);
    p.fill(1, 1);
    p.fill(1, 0);
    EXPECT_EQ(p.victim(0), 0u);
    EXPECT_EQ(p.victim(1), 1u);
}

TEST(Lru, HitPromotionChangesVictim)
{
    Replacement p(ReplPolicyKind::LRU, 1, 8);
    for (std::size_t w = 0; w < 8; ++w)
        p.fill(0, w);
    EXPECT_EQ(p.victim(0), 0u);
    p.touch(0, 0);
    EXPECT_EQ(p.victim(0), 1u);
}

TEST(Lru, TiesGoToTheLowestWay)
{
    // Never-stamped ways tie at zero; the scan keeps the first.
    Replacement p(ReplPolicyKind::LRU, 1, 4);
    p.fill(0, 0);
    EXPECT_EQ(p.victim(0), 1u);
    p.reset();
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(RandomRepl, DeterministicFromSeed)
{
    Replacement a(ReplPolicyKind::Random, 1, 8, 5);
    Replacement b(ReplPolicyKind::Random, 1, 8, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.victim(0), b.victim(0));
}

TEST(RandomRepl, CoversAllWays)
{
    Replacement p(ReplPolicyKind::Random, 1, 4, 1);
    std::set<std::size_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(p.victim(0));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(RandomRepl, ResetReplaysTheSeed)
{
    Replacement p(ReplPolicyKind::Random, 1, 8, 7);
    std::vector<std::size_t> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(p.victim(0));
    p.reset();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(p.victim(0), first[static_cast<std::size_t>(i)]);
}

TEST(Fifo, EvictsOldestFill)
{
    Replacement p(ReplPolicyKind::FIFO, 1, 3);
    p.fill(0, 2);
    p.fill(0, 0);
    p.fill(0, 1);
    // Touching must NOT change FIFO order.
    p.touch(0, 2);
    EXPECT_EQ(p.victim(0), 2u);
}

TEST(TreePlru, VictimAvoidsMostRecent)
{
    Replacement p(ReplPolicyKind::TreePLRU, 1, 4);
    for (std::size_t w = 0; w < 4; ++w)
        p.fill(0, w);
    p.touch(0, 3);
    EXPECT_NE(p.victim(0), 3u);
    p.touch(0, 0);
    EXPECT_NE(p.victim(0), 0u);
}

TEST(TreePlru, SingleWay)
{
    Replacement p(ReplPolicyKind::TreePLRU, 1, 1);
    p.fill(0, 0);
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(TreePlru, TouchedSequenceNeverEvictsLastTouch)
{
    Replacement p(ReplPolicyKind::TreePLRU, 1, 8);
    for (std::size_t w = 0; w < 8; ++w)
        p.fill(0, w);
    for (std::size_t w = 0; w < 8; ++w) {
        p.touch(0, w);
        EXPECT_NE(p.victim(0), w);
    }
}

TEST(Nmru, NeverEvictsMru)
{
    Replacement p(ReplPolicyKind::NMRU, 1, 4, 3);
    p.touch(0, 2);
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(p.victim(0), 2u);
}

TEST(Factory, MakesRequestedKind)
{
    for (auto k : kAllPolicies) {
        const Replacement p(k, 2, 4);
        EXPECT_EQ(p.kind(), k);
        EXPECT_EQ(p.ways(), 4u);
    }
}

class PolicyVictimRange
    : public ::testing::TestWithParam<ReplPolicyKind>
{
};

TEST_P(PolicyVictimRange, VictimAlwaysInRange)
{
    const std::size_t sets = 4, ways = 8;
    Replacement p(GetParam(), sets, ways, 11);
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t set = rng.nextBounded(sets);
        const std::size_t way = rng.nextBounded(ways);
        if (rng.nextBool(0.5))
            p.touch(set, way);
        else
            p.fill(set, way);
        EXPECT_LT(p.victim(set), ways);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyVictimRange,
                         ::testing::ValuesIn(kAllPolicies));

} // namespace
} // namespace bsim
