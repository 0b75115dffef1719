/**
 * @file
 * The batched-access contract, pinned: driving any MemLevel through
 * accessBatch() must leave bit-identical observable state to driving the
 * same stream through access() — counters, per-line usage, replacement/
 * PD state, variant side counters, and the exact ordered next-level
 * event sequence.
 *
 * Everything runs through the one twin driver in verify/batch_equiv
 * (which adds the PD classification checks for a B-Cache): sampled
 * B-Cache cases through runTwinCase, and one pinned conflict-heavy
 * stream per registered variant through runBatchEquiv.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "verify/batch_equiv.hh"
#include "verify/campaign.hh"
#include "workload/generators.hh"

using namespace bsim;

namespace {

/** Conflict-heavy deterministic stream with a write mix. */
std::vector<MemAccess>
makeStream(std::size_t n, std::uint64_t seed, Addr space)
{
    Rng rng(seed);
    std::vector<MemAccess> reqs(n);
    Addr walker = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Addr addr;
        switch (rng.nextBounded(4)) {
          case 0: // same-set thrash: large power-of-two strides
            addr = (rng.nextBounded(8) << 14) | (rng.nextBounded(4) << 5);
            break;
          case 1: // sequential walker
            addr = walker += 16;
            break;
          default: // random over the space
            addr = rng.nextBounded(space);
        }
        reqs[i].addr = addr & (space - 1);
        reqs[i].type = rng.nextBool(0.3) ? AccessType::Write
                                         : AccessType::Read;
    }
    return reqs;
}

/**
 * Twin-drive the cache @p spec names over @p reqs (addresses below
 * 2^@p addr_bits) in @p batch_len-element batches.
 */
void
expectTwinsAgree(const std::string &spec,
                 const std::vector<MemAccess> &reqs, std::size_t batch_len,
                 unsigned addr_bits, std::uint64_t seed)
{
    VectorStream stream(reqs);
    const VerifyResult r =
        runBatchEquiv(parseCacheSpec(spec), stream,
                      {.accesses = reqs.size(),
                       .batchLen = batch_len,
                       .seed = seed,
                       .addrBits = addr_bits});
    EXPECT_TRUE(r.ok) << spec << "\n" << r.toString();
    EXPECT_EQ(r.steps, reqs.size()) << spec;
}

/** One pinned stream of @p n accesses through @p spec. */
void
pinnedStreamCase(const std::string &spec, std::size_t n,
                 std::uint64_t seed, std::size_t batch_len,
                 unsigned addr_bits)
{
    expectTwinsAgree(spec, makeStream(n, seed, Addr{1} << addr_bits),
                     batch_len, addr_bits, seed);
}

TEST(BatchEquivalence, BCacheFuzzedConfigs)
{
    // 12 sampled configurations x 40k steps through the twin-DUT
    // checker; covers write-back and write-through, all replacement
    // policies, BAS=1 and saturated-PI corners as sampled.
    for (std::uint64_t i = 0; i < 12; ++i) {
        const VerifyCase c = sampleCase("bcache", 0xba7c4 + i * 977);
        const VerifyResult r = runTwinCase(c, 40000, 16 + 16 * (i % 8));
        EXPECT_TRUE(r.ok) << "case: " << c.toString() << "\n"
                          << r.toString();
    }
}

TEST(BatchEquivalence, BCacheOddBatchLengths)
{
    // Batch lengths that never divide the stream length, so the tail
    // batch is exercised; length 1 must equal per-access trivially.
    const VerifyCase c = sampleCase("bcache", 0x0ddba7);
    for (const std::size_t len : {1u, 3u, 7u, 1021u}) {
        const VerifyResult r = runTwinCase(c, 20001, len);
        EXPECT_TRUE(r.ok) << "batch_len=" << len << "\n" << r.toString();
    }
}

TEST(BatchEquivalence, SetAssocTwins)
{
    for (const char *spec : {"sa:16kB,4w", "sa:16kB,4w,wp=wt"}) {
        // Replacement state must agree too: a second, different stream
        // follows the first on the same twins, and its outcomes must
        // still match access by access.
        std::vector<MemAccess> reqs =
            makeStream(120000, 0x5e7a550c, Addr{1} << 20);
        const auto tail = makeStream(20000, 0x7a11, Addr{1} << 20);
        reqs.insert(reqs.end(), tail.begin(), tail.end());
        expectTwinsAgree(spec, reqs, 256, 20, 0x5e7a550c);
        // ...and with the tail's own batch length.
        expectTwinsAgree(spec, reqs, 64, 20, 0x7a11);
    }
}

TEST(BatchEquivalence, SetAssocNonLruPolicy)
{
    // The batched fast path devirtualizes LRU; a non-LRU policy takes
    // the generic branch and must stay equivalent (deterministic seed).
    pinnedStreamCase("sa:8kB,4w,repl=plru", 80000, 0xf1f0, 128, 19);
}

TEST(BatchEquivalence, VictimCacheTwins)
{
    pinnedStreamCase("victim:8kB,8e", 100000, 0xbead5, 512, 19);
}

TEST(BatchEquivalence, XorIndexTwins)
{
    pinnedStreamCase("xor:16kB", 100000, 0x0f0e1, 192, 20);
}

TEST(BatchEquivalence, SkewedAssocTwins)
{
    pinnedStreamCase("skew:16kB", 100000, 0x5ce3d, 192, 20);
}

TEST(BatchEquivalence, ColumnAssocTwins)
{
    pinnedStreamCase("column:16kB", 100000, 0xc01a5, 320, 20);
}

TEST(BatchEquivalence, WayHaltingTwins)
{
    pinnedStreamCase("halt:16kB,4w", 100000, 0x4a17e, 256, 20);
}

TEST(BatchEquivalence, PartialMatchTwins)
{
    pinnedStreamCase("pad:16kB,2w,bits=5", 100000, 0x9ad5a, 224, 20);
}

TEST(BatchEquivalence, HacTwins)
{
    // HAC rides the SetAssocCache composition; its fully-associative
    // subarrays stress the widest way scan the engine runs.
    pinnedStreamCase("hac:16kB", 60000, 0xaced1, 128, 20);
}

TEST(BatchEquivalence, EveryRegisteredKindHasATwinSampler)
{
    // A registry entry without a sampler would never be twin-checked by
    // the twin campaign; each sampled spec must also name its own kind.
    for (const CacheSpecEntry &e : CacheFactory::instance().entries()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            VerifyCase c;
            ASSERT_NO_THROW(c = sampleCase(e.name, seed)) << e.name;
            EXPECT_EQ(c.cacheSpec.rfind(e.name + ":", 0), 0u)
                << e.name << " sampled " << c.cacheSpec;
        }
    }
    EXPECT_THROW(sampleCase("nosuch", 1), std::invalid_argument);
}

} // namespace
