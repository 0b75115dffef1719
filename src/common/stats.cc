#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace bsim {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = max_ = x;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::reset()
{
    *this = RunningStat{};
}

double
RunningStat::variance() const
{
    return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::sampleVariance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStat::sampleStddev() const
{
    return std::sqrt(sampleVariance());
}

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : width_(bucket_width ? bucket_width : 1), buckets_(num_buckets, 0)
{
}

void
Histogram::add(std::uint64_t sample, std::uint64_t weight)
{
    const std::uint64_t idx = sample / width_;
    if (idx < buckets_.size())
        buckets_[idx] += weight;
    else
        overflow_ += weight;
    total_ += weight;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    return i < buckets_.size() ? buckets_[i] : 0;
}

std::uint64_t
Histogram::percentile(double fraction) const
{
    if (total_ == 0)
        return 0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        std::ceil(fraction * static_cast<double>(total_)));
    // fraction == 0 means "the smallest recorded sample", not "the upper
    // edge of bucket 0 whether or not anything landed there".
    target = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            return (i + 1) * width_ - 1;
    }
    // The rank lands in the overflow bucket. The old fall-through
    // silently produced the same finite number as a full last bucket,
    // understating the tail; saturate explicitly instead.
    return overflowEdge();
}

std::string
Histogram::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        os << "[" << i * width_ << "," << (i + 1) * width_ << "): "
           << buckets_[i] << "\n";
    }
    if (overflow_)
        os << "overflow: " << overflow_ << "\n";
    return os.str();
}

double
safeRatio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
pct(double num, double den)
{
    return 100.0 * safeRatio(num, den);
}

double
reductionPct(double base, double x)
{
    return base == 0.0 ? 0.0 : 100.0 * (base - x) / base;
}

} // namespace bsim
