/** Unit tests for the statistics primitives. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace bsim {
namespace {

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(4.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SampleVarianceUsesBesselCorrection)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    // Population variance divides by n (= 4.0 above); the unbiased
    // sample variance divides by n-1: 32 / 7.
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 32.0 / 7.0);
    EXPECT_DOUBLE_EQ(s.sampleStddev(), std::sqrt(32.0 / 7.0));
    EXPECT_GT(s.sampleVariance(), s.variance());
}

TEST(RunningStat, SampleVarianceDegenerateCounts)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0) << "empty";
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0)
        << "n=1 must not divide by zero";
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.0); // ((1)^2+(1)^2)/(2-1)
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10, 4); // [0,10) [10,20) [20,30) [30,40)
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(39);
    h.add(40);  // overflow
    h.add(400); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.totalCount(), 6u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(1, 4);
    h.add(2, 5);
    EXPECT_EQ(h.bucketCount(2), 5u);
    EXPECT_EQ(h.totalCount(), 5u);
}

TEST(Histogram, Percentile)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_LE(h.percentile(0.5), 51u);
    EXPECT_GE(h.percentile(0.5), 48u);
    EXPECT_GE(h.percentile(1.0), 99u);
}

TEST(Histogram, PercentileSaturatesAtOverflowEdge)
{
    Histogram h(10, 4); // buckets cover [0, 40), overflowEdge = 40
    h.add(5);
    h.add(1000); // overflow
    h.add(2000); // overflow
    EXPECT_EQ(h.overflowEdge(), 40u);
    // The median falls inside the overflow bucket; the old fall-through
    // returned buckets*width by accident of loop exit — the contract now
    // is an explicit saturation to overflowEdge(), read as ">= 40".
    EXPECT_EQ(h.percentile(0.5), h.overflowEdge());
    EXPECT_EQ(h.percentile(1.0), h.overflowEdge());
    // A fraction low enough to land in a real bucket is unaffected.
    EXPECT_LT(h.percentile(0.2), 10u);
}

TEST(Histogram, PercentileWidthOneIsExact)
{
    Histogram h(1, 16);
    for (std::uint64_t v = 0; v < 16; ++v)
        h.add(v);
    // With unit-width buckets the percentile is the value itself: no
    // upper-edge rounding may push it past the recorded sample.
    EXPECT_EQ(h.percentile(1.0), 15u);
    EXPECT_LE(h.percentile(0.0625), 1u);
}

TEST(Histogram, PercentileFractionZeroIsSmallestSample)
{
    Histogram h(10, 4);
    h.add(25);
    h.add(35);
    // fraction 0 clamps to the first recorded sample's bucket, not the
    // histogram's origin.
    EXPECT_EQ(h.percentile(0.0), h.percentile(0.01));
    EXPECT_GE(h.percentile(0.0), 20u);
}

TEST(Histogram, ResetClears)
{
    Histogram h(1, 4);
    h.add(1);
    h.reset();
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_EQ(h.bucketCount(1), 0u);
}

TEST(Ratios, SafeRatioHandlesZero)
{
    EXPECT_DOUBLE_EQ(safeRatio(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(safeRatio(1, 2), 0.5);
}

TEST(Ratios, Pct)
{
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(pct(0, 0), 0.0);
}

TEST(Ratios, ReductionPct)
{
    // The paper's metric: miss-rate reduction over the baseline.
    EXPECT_DOUBLE_EQ(reductionPct(0.10, 0.05), 50.0);
    EXPECT_DOUBLE_EQ(reductionPct(0.10, 0.10), 0.0);
    EXPECT_DOUBLE_EQ(reductionPct(0.10, 0.20), -100.0);
    EXPECT_DOUBLE_EQ(reductionPct(0.0, 0.1), 0.0);
}

} // namespace
} // namespace bsim
