/**
 * @file
 * Self-relative perf regression gate (ctest label: perf): the batched
 * access path must beat the per-access path by a calibrated factor on
 * the same host, same binary, same pre-generated address stream. Being
 * a ratio of two measurements taken back to back, the gate is portable
 * across machines — it detects "someone made accessBatch() fall back to
 * the slow path" rather than absolute-speed regressions.
 *
 * Three legs, each with the same method and threshold:
 *   bcache   the paper-default 16 kB MF=8 BAS=8 B-Cache
 *   sa8      sa:16kB,8w, the 8-way LRU set-associative cache
 *   victim   dm:16kB+victim:16, the direct-mapped cache with a
 *            16-entry victim buffer (its batched main-array hit path)
 *
 * Knobs:
 *   BSIM_PERF_THRESHOLD  required batched/per-access speedup
 *                        (default 1.15; 0 disables the assertion). The
 *                        floor separates "fast path intact" (~1.2x
 *                        median on a shared single-core host) from
 *                        "batched fell back to per-access" (~1.0x),
 *                        with margin for scheduler noise on both sides.
 *   BSIM_PERF_ACCESSES   accesses per timed round (default 2^23)
 *
 * Instrumented builds (BSIM_SANITIZED, BSIM_COVERAGE) report the ratio
 * but never fail: sanitizer and coverage instrumentation skew the two
 * paths differently.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/victim_cache.hh"
#include "common/strings.hh"
#include "sim/runner.hh"
#include "workload/spec2k.hh"

using namespace bsim;

namespace {

using Clock = std::chrono::steady_clock;

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const double d = std::strtod(v, &end);
    return end == v ? fallback : d;
}

/** Accesses/second of one full pass over @p reqs, per-access driving. */
template <class Cache>
double
ratePerAccess(Cache &cache, const std::vector<MemAccess> &reqs)
{
    const auto start = Clock::now();
    for (const MemAccess &r : reqs)
        cache.access(r);
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return s > 0.0 ? double(reqs.size()) / s : 0.0;
}

/** Accesses/second of one full pass, batched driving. */
template <class Cache>
double
rateBatched(Cache &cache, const std::vector<MemAccess> &reqs,
            std::size_t batch_len, std::vector<AccessOutcome> &outs)
{
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reqs.size(); i += batch_len) {
        const std::size_t n = std::min(batch_len, reqs.size() - i);
        cache.accessBatch({reqs.data() + i, n}, outs.data());
    }
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return s > 0.0 ? double(reqs.size()) / s : 0.0;
}

constexpr std::size_t kBatchLen = kDefaultBatchLen;
constexpr int kRounds = 9;

/**
 * Time one leg: @p per_access and @p batched are two fresh caches of one
 * organisation. Returns the batched/per-access ratio of the medians, or
 * a negative value if the two paths diverged.
 */
template <class Cache>
double
timeLeg(const char *leg, Cache &per_access, Cache &batched,
        const std::vector<MemAccess> &reqs, double threshold)
{
    std::vector<AccessOutcome> outs(kBatchLen);

    // Warm both caches with one untimed pass, then interleave the timed
    // rounds (ABAB) so clock drift hits both paths equally. The gate
    // compares medians, not best-of: on shared hosts a single lucky
    // (or unlucky) round can swing a best-of ratio by 15-20%, while the
    // median of interleaved rounds is stable to one-off scheduler and
    // frequency spikes.
    ratePerAccess(per_access, reqs);
    rateBatched(batched, reqs, kBatchLen, outs);
    std::vector<double> per_rates, batched_rates;
    for (int r = 0; r < kRounds; ++r) {
        per_rates.push_back(ratePerAccess(per_access, reqs));
        batched_rates.push_back(
            rateBatched(batched, reqs, kBatchLen, outs));
    }
    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double med_per = median(per_rates);
    const double med_batched = median(batched_rates);

    // The two paths must also agree bit-for-bit; equivalence proper is
    // tests/test_batch_equivalence.cc, this is a cheap tripwire.
    if (per_access.stats().misses != batched.stats().misses ||
        per_access.stats().hits != batched.stats().hits) {
        std::fprintf(stderr,
                     "FAIL: %s paths diverged (hits %llu vs %llu, misses "
                     "%llu vs %llu)\n",
                     leg, (unsigned long long)per_access.stats().hits,
                     (unsigned long long)batched.stats().hits,
                     (unsigned long long)per_access.stats().misses,
                     (unsigned long long)batched.stats().misses);
        return -1.0;
    }

    const double ratio =
        med_per > 0.0 ? med_batched / med_per : 0.0;
    std::printf("perf_batch_smoke [%s]: per-access %.2f Macc/s, batched "
                "%.2f Macc/s (batch=%zu) -> speedup %.2fx "
                "(threshold %.2fx)\n",
                leg, med_per / 1e6, med_batched / 1e6, kBatchLen, ratio,
                threshold);
    return ratio;
}

} // namespace

int
main()
{
    const double threshold = envDouble("BSIM_PERF_THRESHOLD", 1.15);
    const std::uint64_t n = envCount("BSIM_PERF_ACCESSES", 1ull << 23);

    // Pre-generated stream so generator cost is excluded: the gate times
    // the cache hot loop only. The instruction stream is used because it
    // is hit-heavy (~1% miss rate), so the ratio measures the batched
    // fast hit path. A miss-heavy stream would not: there a batched miss
    // skips only the second probe, and the data stream of gcc reads
    // about 1.0x batched/per-access.
    SpecWorkload w = makeSpecWorkload("gcc");
    std::vector<MemAccess> reqs(n);
    w.inst->nextBatch(reqs.data(), reqs.size());

    BCacheParams params; // paper defaults: 16 kB, 32 B, MF=8, BAS=8
    BCache bc_per("per-access", params);
    BCache bc_batched("batched", params);
    const double bc_ratio =
        timeLeg("bcache", bc_per, bc_batched, reqs, threshold);

    // sa:16kB,8w (LRU), the widest fast path in the paper's grids.
    const CacheGeometry sa8(16 * 1024, 32, 8);
    SetAssocCache sa_per("per-access", sa8, 1, nullptr);
    SetAssocCache sa_batched("batched", sa8, 1, nullptr);
    const double sa_ratio =
        timeLeg("sa8", sa_per, sa_batched, reqs, threshold);

    // dm:16kB+victim:16 (the paper's victim16 point of comparison).
    const CacheGeometry dm(16 * 1024, 32, 1);
    VictimCache vc_per("per-access", dm, 1, nullptr, 16);
    VictimCache vc_batched("batched", dm, 1, nullptr, 16);
    const double vc_ratio =
        timeLeg("victim", vc_per, vc_batched, reqs, threshold);

    if (bc_ratio < 0.0 || sa_ratio < 0.0 || vc_ratio < 0.0)
        return 1;

#if defined(BSIM_SANITIZED) || defined(BSIM_COVERAGE)
    // Coverage counters skew the two paths just like sanitizers do:
    // the coverage job reports the ratio but never fails on it.
    std::printf("instrumented build: threshold not enforced\n");
    return 0;
#else
    bool ok = true;
    for (const auto &[leg, ratio] :
         {std::pair{"bcache", bc_ratio}, std::pair{"sa8", sa_ratio},
          std::pair{"victim", vc_ratio}}) {
        if (threshold > 0.0 && ratio < threshold) {
            std::fprintf(stderr,
                         "FAIL: %s batched path is only %.2fx the "
                         "per-access path (need %.2fx)\n",
                         leg, ratio, threshold);
            ok = false;
        }
    }
    return ok ? 0 : 1;
#endif
}
