/** Unit tests for the access-time and AMAT models. */

#include <gtest/gtest.h>

#include "sim/amat.hh"
#include "timing/decoder_model.hh"

namespace bsim {
namespace {

TEST(AccessTime, GrowsWithAssociativity)
{
    const NanoSeconds t1 = cacheAccessTime(16 * 1024, 32, 1);
    const NanoSeconds t2 = cacheAccessTime(16 * 1024, 32, 2);
    const NanoSeconds t8 = cacheAccessTime(16 * 1024, 32, 8);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t8);
}

TEST(AccessTime, GrowsWithSize)
{
    EXPECT_LT(cacheAccessTime(8 * 1024, 32, 1),
              cacheAccessTime(32 * 1024, 32, 1));
}

TEST(AccessTime, PaperSection1Band)
{
    // DM is 15-35% faster than 8-way at these sizes (paper: 29.5% at
    // 8 kB, 19.3% at 16 kB).
    for (std::uint64_t size : {8ull * 1024, 16ull * 1024}) {
        const double t1 = cacheAccessTime(size, 32, 1);
        const double t8 = cacheAccessTime(size, 32, 8);
        const double adv = 100.0 * (t8 - t1) / t8;
        EXPECT_GT(adv, 12.0);
        EXPECT_LT(adv, 35.0);
    }
}

TEST(Amat, BCacheClockEqualsDirectMapped)
{
    const AmatResult dm =
        evaluateAmat(parseCacheSpec("dm:16kB"), 0.10);
    const AmatResult bc =
        evaluateAmat(parseCacheSpec("bcache:16kB,mf=8,bas=8"), 0.10);
    EXPECT_DOUBLE_EQ(dm.clockNs, bc.clockNs);
}

TEST(Amat, LowerMissRateLowersAmatAtSameClock)
{
    const AmatResult hi =
        evaluateAmat(parseCacheSpec("bcache:16kB,mf=8,bas=8"), 0.10);
    const AmatResult lo =
        evaluateAmat(parseCacheSpec("bcache:16kB,mf=8,bas=8"), 0.05);
    EXPECT_LT(lo.amatNs, hi.amatNs);
}

TEST(Amat, AssociativityTradeoffVisible)
{
    // Same miss rate: the 8-way pays for its clock stretch.
    const AmatResult dm =
        evaluateAmat(parseCacheSpec("dm:16kB"), 0.05);
    const AmatResult w8 =
        evaluateAmat(parseCacheSpec("sa:16kB,8w"), 0.05);
    EXPECT_GT(w8.amatNs, dm.amatNs);
}

TEST(Amat, BCacheBeatsEightWayWithComparableMissRate)
{
    // The headline: a B-Cache near the 8-way miss rate wins on AMAT.
    const AmatResult w8 =
        evaluateAmat(parseCacheSpec("sa:16kB,8w"), 0.050);
    const AmatResult bc =
        evaluateAmat(parseCacheSpec("bcache:16kB,mf=8,bas=8"), 0.055);
    EXPECT_LT(bc.amatNs, w8.amatNs);
}

TEST(Amat, SlowHitsCost)
{
    const AmatResult plain =
        evaluateAmat(parseCacheSpec("victim:16kB,16e"), 0.05, 0.0);
    const AmatResult slow =
        evaluateAmat(parseCacheSpec("victim:16kB,16e"), 0.05, 0.10);
    EXPECT_GT(slow.amatNs, plain.amatNs);
}

TEST(Amat, CoreFloorClamps)
{
    AmatParams params;
    params.coreFloorNs = 10.0;
    const AmatResult r = evaluateAmat(
        parseCacheSpec("dm:16kB"), 0.05, 0.0, params);
    EXPECT_DOUBLE_EQ(r.clockNs, 10.0);
}

TEST(Amat, HacPaysSerialCamSearch)
{
    const AmatResult hac =
        evaluateAmat(parseCacheSpec("hac:16kB"), 0.05);
    const AmatResult dm =
        evaluateAmat(parseCacheSpec("dm:16kB"), 0.05);
    EXPECT_GT(hac.accessTimeNs, dm.accessTimeNs);
}

} // namespace
} // namespace bsim
