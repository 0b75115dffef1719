/** Suite-wide sanity: every one of the 26 synthetic benchmarks stays in
 *  the qualitative regime DESIGN.md assigns it. These tests guard the
 *  workload definitions against calibration regressions — if a future
 *  edit silently turns a conflict benchmark into a streaming one, the
 *  headline figures would drift without any unit test noticing. */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/runner.hh"
#include "workload/spec2k.hh"

namespace bsim {
namespace {

constexpr std::uint64_t kAcc = 60000;

class SuiteSanity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteSanity, DmMissRateInPlausibleBand)
{
    const double mr = runMissRate(GetParam(), StreamSide::Data,
                                  parseCacheSpec("dm:16kB"),
                                  kAcc)
                          .missRate();
    EXPECT_GT(mr, 0.002) << "degenerate: everything hits";
    EXPECT_LT(mr, 0.60) << "degenerate: nothing caches";
}

TEST_P(SuiteSanity, AssociativityNeverHurtsMuch)
{
    // 8-way may lose slightly to DM on LRU-hostile patterns but must
    // never be catastrophically worse.
    const double dm = runMissRate(GetParam(), StreamSide::Data,
                                  parseCacheSpec("dm:16kB"),
                                  kAcc)
                          .missRate();
    const double w8 = runMissRate(GetParam(), StreamSide::Data,
                                  parseCacheSpec("sa:16kB,8w"),
                                  kAcc)
                          .missRate();
    EXPECT_LT(w8, dm * 1.15 + 0.01) << "8-way much worse than DM";
}

TEST_P(SuiteSanity, BCacheBetweenDmAndGenerousBound)
{
    const double dm = runMissRate(GetParam(), StreamSide::Data,
                                  parseCacheSpec("dm:16kB"),
                                  kAcc)
                          .missRate();
    const double bc = runMissRate(GetParam(), StreamSide::Data,
                                  parseCacheSpec("bcache:16kB,mf=8,bas=8"),
                                  kAcc)
                          .missRate();
    EXPECT_LT(bc, dm * 1.15 + 0.01) << "B-Cache much worse than DM";
}

TEST_P(SuiteSanity, IcacheClassMatchesRegistry)
{
    const auto &rep = spec2kIcacheReportedNames();
    const bool reported =
        std::find(rep.begin(), rep.end(), GetParam()) != rep.end();
    const double mr = runMissRate(GetParam(), StreamSide::Inst,
                                  parseCacheSpec("dm:16kB"),
                                  kAcc)
                          .missRate();
    if (reported)
        EXPECT_GT(mr, 0.001) << "reported benchmark with trivial I$";
    else
        EXPECT_LT(mr, 0.005) << "excluded benchmark with real I$ misses";
}

INSTANTIATE_TEST_SUITE_P(
    All26, SuiteSanity, ::testing::ValuesIn(spec2kNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(SuiteSanityAggregate, HeadlineShapesHold)
{
    // The orderings EXPERIMENTS.md reports, at reduced scale: averaged
    // over the suite, reductions satisfy 2w < 4w < 8w and MF2 < MF4 <
    // MF8, with the B-Cache(MF8) between 4-way and 8-way territory.
    RunningStat r2, r4, r8, m2, m4, m8, vic;
    for (const auto &b : spec2kNames()) {
        const double dm =
            runMissRate(b, StreamSide::Data,
                        parseCacheSpec("dm:16kB"), kAcc)
                .missRate();
        auto red = [&](const CacheConfig &c) {
            return reductionPct(
                dm, runMissRate(b, StreamSide::Data, c, kAcc)
                        .missRate());
        };
        r2.add(red(parseCacheSpec("sa:16kB,2w")));
        r4.add(red(parseCacheSpec("sa:16kB,4w")));
        r8.add(red(parseCacheSpec("sa:16kB,8w")));
        m2.add(red(parseCacheSpec("bcache:16kB,mf=2,bas=8")));
        m4.add(red(parseCacheSpec("bcache:16kB,mf=4,bas=8")));
        m8.add(red(parseCacheSpec("bcache:16kB,mf=8,bas=8")));
        vic.add(red(parseCacheSpec("victim:16kB,16e")));
    }
    EXPECT_LT(r2.mean(), r4.mean());
    EXPECT_LT(r4.mean(), r8.mean());
    EXPECT_LT(m2.mean(), m4.mean());
    EXPECT_LT(m4.mean(), m8.mean());
    EXPECT_GT(m8.mean(), r4.mean() * 0.8);
    EXPECT_GT(m8.mean(), vic.mean());
}

} // namespace
} // namespace bsim
