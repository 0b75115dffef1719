#include "common/random.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bsim {

namespace {

/** splitmix64 used to expand the seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // Guard against an all-zero state (xoshiro fixed point).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    assert(bound != 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

std::uint64_t
Rng::nextGeometric(double p, std::uint64_t cap)
{
    assert(p > 0.0 && p <= 1.0);
    if (p >= 1.0)
        return 0;
    return GeometricDraw(p, cap)(*this);
}

GeometricDraw::GeometricDraw(double p, std::uint64_t cap)
    : logQ_(std::log1p(-p)), cap_(cap)
{
    assert(p > 0.0 && p < 1.0);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
{
    assert(n > 0);
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        cdf_[r] = sum;
    }
    for (auto &c : cdf_)
        c /= sum;
}

std::size_t
ZipfSampler::operator()(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

} // namespace bsim
