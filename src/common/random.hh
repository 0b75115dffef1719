/**
 * @file
 * Deterministic pseudo-random number generation and the distributions the
 * workload generators need (uniform, geometric, Zipf, Gaussian-ish).
 *
 * All simulator randomness flows through Rng so that every experiment is
 * reproducible from a single 64-bit seed.
 */

#ifndef BSIM_COMMON_RANDOM_HH
#define BSIM_COMMON_RANDOM_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bsim {

/**
 * xoshiro256** generator. Small, fast, and deterministic across platforms
 * (unlike std::mt19937 + std:: distributions whose outputs are not
 * specified identically everywhere).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be non-zero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * Geometric draw: number of failures before first success with success
     * probability @p p in (0, 1]. Capped at @p cap.
     */
    std::uint64_t nextGeometric(double p, std::uint64_t cap = 1u << 20);

    /** Split off an independent generator (for sub-streams). */
    Rng split();

  private:
    std::uint64_t s_[4];
};

/**
 * Rng::nextGeometric(p, cap) for one p in (0, 1), with its log1p(-p)
 * computed once. A draw divides by the same double, so it returns the
 * same value as nextGeometric() on the same Rng.
 */
class GeometricDraw
{
  public:
    GeometricDraw(double p, std::uint64_t cap);

    std::uint64_t
    operator()(Rng &rng) const
    {
        const double u = std::max(rng.nextDouble(), 1e-18);
        const double draw = std::floor(std::log(u) / logQ_);
        return std::min(static_cast<std::uint64_t>(draw), cap_);
    }

  private:
    double logQ_; ///< log1p(-p)
    std::uint64_t cap_;
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Rank r is drawn with probability proportional to 1 / (r + 1)^alpha.
 * Uses an inverse-CDF table built once; sampling is O(log n).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double alpha);

    std::size_t operator()(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace bsim

#endif // BSIM_COMMON_RANDOM_HH
