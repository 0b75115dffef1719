/** Unit tests for the drowsy-leakage estimator. */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.hh"
#include "power/drowsy.hh"
#include "workload/generators.hh"

namespace bsim {
namespace {

DrowsyParams
win(std::uint64_t w)
{
    DrowsyParams p;
    p.windowTicks = w;
    return p;
}

TEST(Drowsy, NoAccessesNoReport)
{
    DrowsyEstimator est(16, win(10));
    const DrowsyReport r = est.report();
    EXPECT_EQ(r.ticks, 0u);
    EXPECT_DOUBLE_EQ(r.drowsyFraction, 0.0);
}

TEST(Drowsy, HotLineNeverDrowsy)
{
    // One line touched every tick: it never exceeds the window; the
    // other 15 lines drowse through (ticks - window) each.
    DrowsyEstimator est(16, win(10));
    const std::uint64_t n = 1000;
    for (std::uint64_t i = 0; i < n; ++i)
        est.onLineAccess(0, true);
    const DrowsyReport r = est.report();
    // line 0: 0 drowsy; 15 lines: 990 drowsy each.
    EXPECT_NEAR(r.drowsyFraction, 15.0 * 990 / (16.0 * 1000), 1e-9);
    EXPECT_EQ(r.wakeups, 0u);
}

TEST(Drowsy, IdleGapCounted)
{
    DrowsyEstimator est(1, win(10));
    est.onLineAccess(0, true); // tick 1
    for (int i = 0; i < 99; ++i)
        est.onLineAccess(0, true); // ticks 2..100, gaps of 1
    // Now a 50-tick conceptual gap by touching... single line only:
    // simulate by constructing a fresh estimator with two lines.
    DrowsyEstimator e2(2, win(10));
    e2.onLineAccess(0, true);          // t1
    for (int i = 0; i < 60; ++i)
        e2.onLineAccess(1, true);      // t2..61
    e2.onLineAccess(0, true);          // t62: gap 61, drowsy 51
    const DrowsyReport r = e2.report();
    EXPECT_EQ(r.wakeups, 1u); // only line 0's re-access finds it drowsy
    EXPECT_GT(r.drowsyFraction, 0.0);
}

TEST(Drowsy, LeakageFactorFormula)
{
    DrowsyEstimator est(4, win(1));
    for (int i = 0; i < 100; ++i)
        est.onLineAccess(0, true);
    const DrowsyReport r = est.report();
    EXPECT_NEAR(r.leakageFactor,
                (1.0 - r.drowsyFraction) + r.drowsyFraction * 0.1,
                1e-12);
}

TEST(Drowsy, SmallerWindowMoreDrowsy)
{
    auto run = [](std::uint64_t w) {
        DrowsyEstimator est(8, win(w));
        for (int i = 0; i < 2000; ++i)
            est.onLineAccess(static_cast<std::size_t>(i % 4), true);
        return est.report().drowsyFraction;
    };
    EXPECT_GE(run(2), run(200));
}

TEST(Drowsy, ResetClears)
{
    DrowsyEstimator est(4, win(1));
    for (int i = 0; i < 50; ++i)
        est.onLineAccess(0, true);
    est.reset();
    EXPECT_EQ(est.report().ticks, 0u);
}

TEST(Drowsy, AttachesToCacheObserver)
{
    SetAssocCache c("c", CacheGeometry(1024, 32, 1), 1, nullptr);
    DrowsyEstimator est(c.geometry().numLines(), win(100));
    c.setCacheObserver(&est);
    SequentialStream s(0, 256, 8); // touches 8 of 32 lines
    for (int i = 0; i < 5000; ++i)
        c.access(s.next());
    const DrowsyReport r = est.report();
    EXPECT_EQ(r.ticks, 5000u);
    // 24 untouched lines are drowsy nearly the whole run.
    EXPECT_GT(r.drowsyFraction, 24.0 / 32.0 * 0.9);
    EXPECT_LT(r.leakageFactor, 0.5);
}

TEST(Drowsy, BalancedCacheStillHasDrowsyLines)
{
    // The Section 6.4 claim: even after balancing, most lines idle
    // long enough to drowse when traffic concentrates on a hot subset.
    SetAssocCache c("c", CacheGeometry(16 * 1024, 32, 1), 1, nullptr);
    DrowsyEstimator est(c.geometry().numLines(), win(2000));
    c.setCacheObserver(&est);
    SequentialStream hot(0, 2048, 8);
    for (int i = 0; i < 100000; ++i)
        c.access(hot.next());
    EXPECT_GT(est.report().drowsyFraction, 0.5);
}

} // namespace
} // namespace bsim
