/**
 * @file
 * Lightweight statistics primitives: counters with derived rates, running
 * scalar statistics, and fixed-bucket histograms. These back every cache
 * and CPU model's reporting.
 */

#ifndef BSIM_COMMON_STATS_HH
#define BSIM_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bsim {

/**
 * Running mean/min/max/variance over a stream of doubles
 * (Welford's algorithm).
 */
class RunningStat
{
  public:
    void add(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    /** Population variance (divides by n). */
    double variance() const;
    double stddev() const;
    /**
     * Unbiased sample variance (divides by n - 1; 0 for fewer than two
     * samples). Use this when the added values are themselves draws from
     * a larger population — e.g. the per-seed suite averages behind the
     * ablation_seeds spread row — where the population form understates
     * the across-draw confidence interval.
     */
    double sampleVariance() const;
    double sampleStddev() const;
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Histogram over non-negative integer samples with uniform bucket width.
 * Samples beyond the last bucket land in an overflow bucket.
 */
class Histogram
{
  public:
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets);

    void add(std::uint64_t sample, std::uint64_t weight = 1);
    void reset();

    std::uint64_t bucketCount(std::size_t i) const;
    std::uint64_t overflowCount() const { return overflow_; }
    std::uint64_t totalCount() const { return total_; }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketWidth() const { return width_; }

    /**
     * First value beyond the tracked range: samples >= this landed in the
     * overflow bucket. Also the saturation value percentile() returns
     * when the requested rank falls into the overflow bucket.
     */
    std::uint64_t overflowEdge() const { return buckets_.size() * width_; }

    /**
     * Smallest value v guaranteed to satisfy cdf(v) >= fraction: the
     * inclusive upper edge of the bucket holding the target rank (exact
     * when bucketWidth() == 1). fraction <= 0 targets the smallest
     * recorded sample's bucket. When the rank lands in the overflow
     * bucket the true value is unknowable from the histogram; the result
     * saturates to overflowEdge() — callers reporting tail latency must
     * treat it as ">= overflowEdge()", not as a measurement.
     */
    std::uint64_t percentile(double fraction) const;

    std::string toString() const;

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/** Ratio helper that renders 0 for a 0/0. */
double safeRatio(double num, double den);

/** Percentage helper: 100 * num / den, 0 on zero denominator. */
double pct(double num, double den);

/**
 * Relative reduction in percent: 100 * (base - x) / base.
 * This is the paper's "miss rate reduction over baseline" metric.
 */
double reductionPct(double base, double x);

} // namespace bsim

#endif // BSIM_COMMON_STATS_HH
