/** Unit tests for the replacement policies. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bcache/bcache.hh"
#include "cache/replacement.hh"
#include "cache/tag_store.hh"
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

TEST(Fifo, TiesGoToTheLowestWay)
{
    // Never-filled ways tie at stamp zero; touches never stamp.
    Replacement p(ReplPolicyKind::FIFO, 1, 4);
    p.fill(0, 0);
    p.touch(0, 1);
    EXPECT_EQ(p.victim(0), 1u);
    p.fill(0, 1);
    p.fill(0, 2);
    EXPECT_EQ(p.victim(0), 3u);
    p.reset();
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(Lru, ThirtyTwoWaysFollowExactRecency)
{
    // Wider than any 64-bit word of 4-bit recency ranks: the victim must
    // still be the exact least recently used way, against a reference
    // recency list.
    constexpr std::size_t kWays = 32;
    Replacement p(ReplPolicyKind::LRU, 2, kWays);
    std::vector<std::size_t> order; // least recent first
    Rng rng(32);
    for (std::size_t w = 0; w < kWays; ++w) {
        const std::size_t way = (w * 7 + 3) % kWays;
        p.fill(1, way);
        order.push_back(way);
    }
    for (int step = 0; step < 2000; ++step) {
        ASSERT_EQ(p.victim(1), order.front()) << "step " << step;
        const std::size_t way = rng.nextBounded(4) == 0
                                    ? order.front()
                                    : rng.nextBounded(kWays);
        if (step % 3 == 0)
            p.fill(1, way);
        else
            p.touch(1, way);
        order.erase(std::find(order.begin(), order.end(), way));
        order.push_back(way);
    }
    // Set 0 was never touched: all ties, lowest way.
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(RowScan, DuplicatedKeyResolvesToTheLowestWay)
{
    // Only fault injection duplicates a key in a row; the scan must
    // then answer the lowest way holding it.
    constexpr Addr kKey = 0x1234;
    for (const std::size_t ways : {2u, 3u, 8u, 16u, 32u}) {
        for (std::size_t lo = 0; lo + 1 < ways; ++lo) {
            std::vector<Addr> row(ways, kEmptyKey);
            for (std::size_t w = 0; w < ways; ++w)
                row[w] = 0x100 + w;
            row[lo] = kKey;
            row[ways - 1] = kKey;
            EXPECT_EQ(scanWays(row.data(), ways, kKey, AllWays{}),
                      static_cast<int>(lo))
                << ways << " ways, first copy at " << lo;
        }
    }

    TagStore tags(24, 5);
    for (std::size_t f = 0; f < tags.size(); ++f)
        tags.fill(f, 0x40 + f, false);
    tags.fill(8 + 2, kKey, false);
    tags.fill(8 + 5, kKey, true);
    EXPECT_EQ(tags.find(8, 8, kKey), 2);
    EXPECT_EQ(tags.find(0, 8, kKey), -1);
    EXPECT_EQ(tags.find(13, 1, kKey), 0);
    EXPECT_EQ(tags.find(14, 1, kKey), -1);
}

TEST(RowScan, CorruptedPdDecodesToTheLowestMatchingWay)
{
    // Two lines of one group decode the same pattern after a PD fault.
    // Only the lowest such way activates, so an access to the other
    // line's block is a PD hit with a tag miss.
    BCacheParams params; // 16 kB, 32 B lines, MF = 8, BAS = 8
    BCache c("b", params);
    const BCacheLayout &l = c.layout();
    const auto addr = [&](Addr upper, std::size_t group) {
        return ((upper << l.npiBits) | group) << 5;
    };
    const std::size_t g = 3;
    const Addr high = Addr{1} << l.piBits; // above the PD pattern
    c.access({addr(1, g), AccessType::Read});        // way 0
    c.access({addr(high | 2, g), AccessType::Read}); // way 1
    c.access({addr(5, g), AccessType::Read});        // way 2
    ASSERT_TRUE(c.contains(addr(high | 2, g)));

    c.debugCorruptPd(g, 1, 1); // way 1 now holds upper high | 1
    EXPECT_FALSE(c.checkUniqueDecoding(g));
    EXPECT_EQ(c.classify(addr(1, g)), PdOutcome::HitAndCacheHit);
    EXPECT_EQ(c.classify(addr(high | 1, g)), PdOutcome::HitButCacheMiss);
    EXPECT_EQ(c.classify(addr(high | 2, g)), PdOutcome::Miss);
    EXPECT_EQ(c.classify(addr(5, g)), PdOutcome::HitAndCacheHit);

    // The batched fast path decodes the same way.
    std::vector<MemAccess> reqs{{addr(1, g), AccessType::Read},
                                {addr(1, g), AccessType::Read},
                                {addr(high | 1, g), AccessType::Read}};
    std::vector<AccessOutcome> out(reqs.size());
    c.accessBatch(reqs, out.data());
    EXPECT_TRUE(out[0].hit);
    EXPECT_TRUE(out[1].hit);
    EXPECT_FALSE(out[2].hit);
    EXPECT_EQ(c.lastOutcome(), PdOutcome::HitButCacheMiss);
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
