#include "observe/observer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace bsim {

namespace {

/** Element-wise a[i] += b[i], growing a to b's length first. */
template <typename T>
void
addResized(std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() < b.size())
        a.resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        a[i] += b[i];
}

} // namespace

BalanceMetrics
computeBalanceMetrics(std::span<const SetUsage> usage)
{
    BalanceMetrics m;
    const std::size_t n = usage.size();
    if (n == 0)
        return m;

    std::uint64_t total = 0;
    for (const auto &u : usage) {
        total += u.accesses();
        m.maxRefs = std::max(m.maxRefs, u.accesses());
    }
    m.meanRefs = double(total) / double(n);
    if (total == 0)
        return m;
    m.maxOverMean = double(m.maxRefs) / m.meanRefs;

    double var = 0;
    for (const auto &u : usage) {
        const double d = double(u.accesses()) - m.meanRefs;
        var += d * d;
    }
    m.cov = std::sqrt(var / double(n)) / m.meanRefs;

    // Gini via the sorted-rank identity:
    //   G = (2 * sum_i i*x_(i) / (n * sum x)) - (n + 1) / n
    // with x_(i) ascending and i starting at 1. O(n log n); the
    // histograms here are at most a few thousand sets.
    std::vector<std::uint64_t> refs(n);
    for (std::size_t i = 0; i < n; ++i)
        refs[i] = usage[i].accesses();
    std::sort(refs.begin(), refs.end());
    double weighted = 0;
    for (std::size_t i = 0; i < n; ++i)
        weighted += double(i + 1) * double(refs[i]);
    m.gini = 2.0 * weighted / (double(n) * double(total)) -
             double(n + 1) / double(n);
    return m;
}

ObserverReport &
ObserverReport::operator+=(const ObserverReport &other)
{
    bsim_assert(perSet.empty() || other.perSet.empty() ||
                    perSet.size() == other.perSet.size(),
                "merging observer reports from different geometries");
    if (perSet.size() < other.perSet.size())
        perSet.resize(other.perSet.size());
    for (std::size_t i = 0; i < other.perSet.size(); ++i) {
        perSet[i].hits += other.perSet[i].hits;
        perSet[i].misses += other.perSet[i].misses;
    }
    addResized(installs, other.installs);
    writebacks += other.writebacks;
    pdReprograms += other.pdReprograms;

    // Interval series concatenate in merge (= shard) order; adopt the
    // other side's window length if we had no series of our own.
    if (intervalLen == 0)
        intervalLen = other.intervalLen;
    intervals.insert(intervals.end(), other.intervals.begin(),
                     other.intervals.end());

    addResized(pdReprogramsPerGroup, other.pdReprogramsPerGroup);
    if (pdOccupancy.size() < other.pdOccupancy.size())
        pdOccupancy.resize(other.pdOccupancy.size());
    for (std::size_t i = 0; i < other.pdOccupancy.size(); ++i)
        pdOccupancy[i] = std::max(pdOccupancy[i], other.pdOccupancy[i]);
    return *this;
}

StatsObserver::StatsObserver(std::size_t num_lines,
                             const ObserverConfig &config)
    : config_(config)
{
    data_.installs.assign(num_lines, 0);
    data_.intervalLen = config.intervalLen;
}

void
StatsObserver::onLineAccess(std::size_t, bool hit)
{
    if (config_.intervalLen == 0)
        return;
    ++window_.accesses;
    if (!hit)
        ++window_.misses;
    if (window_.accesses == config_.intervalLen) {
        data_.intervals.push_back(window_);
        window_ = IntervalSample{};
    }
}

void
StatsObserver::onInstall(std::size_t line)
{
    ++data_.installs[line];
}

void
StatsObserver::onWriteback()
{
    if (config_.intervalLen != 0)
        ++window_.writebacks;
}

void
StatsObserver::onDecoderReprogram(std::size_t group)
{
    ++data_.pdReprograms;
    if (data_.pdReprogramsPerGroup.size() <= group)
        data_.pdReprogramsPerGroup.resize(group + 1);
    ++data_.pdReprogramsPerGroup[group];
    if (config_.intervalLen != 0)
        ++window_.pdReprograms;
}

ObserverReport
StatsObserver::report() const
{
    ObserverReport r = data_;
    if (config_.intervalLen != 0 && window_.accesses != 0)
        r.intervals.push_back(window_);
    return r;
}

} // namespace bsim
