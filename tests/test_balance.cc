/** Unit tests for the Table 7 balance classification. */

#include <gtest/gtest.h>

#include "bcache/balance.hh"
#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "workload/generators.hh"

namespace bsim {
namespace {

/** Count one access of @p line, the way BaseCache's histogram does. */
void
record(std::vector<SetUsage> &usage, std::size_t line, bool hit)
{
    ++(hit ? usage[line].hits : usage[line].misses);
}

TEST(Balance, EmptyTrackerIsAllZero)
{
    const std::vector<SetUsage> t;
    const BalanceReport r = analyzeBalance(t);
    EXPECT_DOUBLE_EQ(r.fhsPct, 0.0);
    EXPECT_DOUBLE_EQ(r.lasPct, 0.0);
}

TEST(Balance, UniformUsageHasNoFrequentSets)
{
    std::vector<SetUsage> t(16);
    for (std::size_t s = 0; s < 16; ++s)
        for (int i = 0; i < 10; ++i)
            record(t, s, i % 2 == 0);
    const BalanceReport r = analyzeBalance(t);
    EXPECT_DOUBLE_EQ(r.fhsPct, 0.0);
    EXPECT_DOUBLE_EQ(r.fmsPct, 0.0);
    EXPECT_DOUBLE_EQ(r.lasPct, 0.0);
}

TEST(Balance, SingleHotSetDetected)
{
    std::vector<SetUsage> t(10);
    // Set 0 gets 100 hits; the other nine get 1 hit each.
    for (int i = 0; i < 100; ++i)
        record(t, 0, true);
    for (std::size_t s = 1; s < 10; ++s)
        record(t, s, true);
    const BalanceReport r = analyzeBalance(t);
    EXPECT_DOUBLE_EQ(r.fhsPct, 10.0); // 1 of 10 sets
    EXPECT_NEAR(r.chPct, 100.0 * 100 / 109, 1e-9);
}

TEST(Balance, FrequentMissSetsDetected)
{
    std::vector<SetUsage> t(4);
    for (int i = 0; i < 30; ++i)
        record(t, 0, false);
    record(t, 1, false);
    record(t, 2, false);
    record(t, 3, false);
    const BalanceReport r = analyzeBalance(t);
    EXPECT_DOUBLE_EQ(r.fmsPct, 25.0);
    EXPECT_NEAR(r.cmPct, 100.0 * 30 / 33, 1e-9);
}

TEST(Balance, LessAccessedSets)
{
    std::vector<SetUsage> t(4);
    // avg accesses = (12+12+12+0)/4 = 9; threshold < 4.5.
    for (std::size_t s = 0; s < 3; ++s)
        for (int i = 0; i < 12; ++i)
            record(t, s, true);
    const BalanceReport r = analyzeBalance(t);
    EXPECT_DOUBLE_EQ(r.lasPct, 25.0);
    EXPECT_DOUBLE_EQ(r.tcaPct, 0.0);
}

TEST(Balance, BCacheBalancesConflictStream)
{
    // The headline mechanism (Section 6.4): under a conflict-heavy
    // stream, the B-Cache spreads misses across sets, shrinking the
    // frequent-miss concentration relative to the direct-mapped baseline.
    const auto run = [](BaseCache &c) {
        LoopNestStream s(0, 6, 32 * 1024, 2, 8, 256, 32);
        // Mix in uniform background so averages are meaningful.
        SequentialStream bg(0x100000, 8 * 1024, 8);
        for (int i = 0; i < 200000; ++i) {
            c.access(s.next());
            c.access(bg.next());
            c.access(bg.next());
        }
        return analyzeBalance(c.setUsage());
    };

    SetAssocCache dm("dm", CacheGeometry(16 * 1024, 32, 1), 1, nullptr);
    const BalanceReport base = run(dm);

    BCacheParams p;
    p.sizeBytes = 16 * 1024;
    p.lineBytes = 32;
    p.mf = 16;
    p.bas = 8;
    BCache bc("bc", p);
    const BalanceReport bal = run(bc);

    // The baseline concentrates misses in few sets; the B-Cache must cut
    // that concentration sharply.
    EXPECT_GT(base.cmPct, 50.0);
    EXPECT_LT(bal.cmPct, base.cmPct);
}

TEST(Balance, WriteThroughMissesAreNotChargedToWayZero)
{
    // Regression pin for the Table 7 write-path fix: a no-write-allocate
    // store miss touches no physical line, so it must not be attributed
    // to way 0 of its group. The old record(type, false, group * bas)
    // call painted one line per group as a frequent-miss set under any
    // write-heavy stream and skewed the balance classification.
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.mf = 4;
    p.bas = 4;
    p.writePolicy = WritePolicy::WriteThroughNoAllocate;
    BCache bc("bc", p);

    // 300 store misses, all PD misses, never allocating.
    for (int i = 0; i < 300; ++i)
        bc.access({Addr(0x40 + 0x400 * i), AccessType::Write});
    EXPECT_EQ(bc.stats().misses, 300u) << "aggregate stats still count";
    EXPECT_EQ(bc.validLines(), 0u);

    std::uint64_t attributed = 0;
    for (const SetUsage &u : bc.setUsage())
        attributed += u.accesses();
    EXPECT_EQ(attributed, 0u)
        << "forwarded store misses must leave the usage histogram alone";

    const BalanceReport r = analyzeBalance(bc.setUsage());
    EXPECT_DOUBLE_EQ(r.cmPct, 0.0)
        << "pre-fix this read ~100%: every miss piled onto one line";
    EXPECT_DOUBLE_EQ(r.fmsPct, 0.0);

    // PD-hit store misses (pattern matches, tag differs) are the second
    // leg of the same bug: resident block stays, no line is charged.
    BCache bc2("bc2", p);
    bc2.access({0x40, AccessType::Read}); // resident: upper 0, pattern 0
    // 0x1040: same group, same PD pattern (upper 16), different tag.
    bc2.access({Addr(0x40 + (Addr{16} << 8)), AccessType::Write});
    ASSERT_EQ(bc2.pdStats().pdHitCacheMiss, 1u);
    std::uint64_t acc2 = 0;
    for (const SetUsage &u : bc2.setUsage())
        acc2 += u.accesses();
    EXPECT_EQ(acc2, 1u) << "only the read may be attributed";
}

} // namespace
} // namespace bsim
