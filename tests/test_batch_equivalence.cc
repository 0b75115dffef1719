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

#include <algorithm>
#include <vector>

#include "bcache/bcache.hh"
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
 * Hit-heavy stream shaped like an instruction stream: 4-byte steps,
 * jumps mostly within a 12 kB hot region and now and then to a block
 * anywhere in 1 MB. Now and then it also touches the block 128 kB
 * above the current one and comes straight back: in a 16 kB cache that
 * block shares the current block's set, and in a B-Cache with MF <= 8
 * also its group and PD pattern, so it may evict the block the memo
 * holds. Most accesses repeat the previous block and the miss share
 * stays low, so the batched fast paths consult their last-block memo.
 */
std::vector<MemAccess>
makeHitHeavyStream(std::size_t n, std::uint64_t seed)
{
    constexpr Addr kSpace = Addr{1} << 20;
    Rng rng(seed);
    std::vector<MemAccess> reqs;
    Addr pc = 0;
    while (reqs.size() < n) {
        const std::uint64_t r = rng.nextBounded(256);
        if (r < 1)
            pc = rng.nextBounded(kSpace) & ~Addr{3};
        else if (r < 21)
            pc = rng.nextBounded(12 * 1024) & ~Addr{3};
        else
            pc = (pc + 4) & (kSpace - 1);
        if (r == 21)
            reqs.push_back({(pc + (Addr{1} << 17)) & (kSpace - 1),
                            AccessType::Read});
        reqs.push_back(
            {pc, r % 10 == 0 ? AccessType::Write : AccessType::Read});
    }
    reqs.resize(n);
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

/**
 * One memo case: a warm-up of hits (so the running miss share is low and
 * the fast path consults its last-block memo), then the batch
 * [A, A, B, A] where B evicts A.
 */
void
memoCase(const std::string &spec, Addr a, Addr b, Addr other,
         AccessType second_a)
{
    const MemAccess A{a, AccessType::Read};
    std::vector<MemAccess> reqs{A, {other, AccessType::Read}};
    reqs.resize(64, A);
    const std::vector<MemAccess> batch{
        A, {a, second_a}, {b, AccessType::Read}, A};
    reqs.insert(reqs.end(), batch.begin(), batch.end());

    // Full twin check, batched four at a time so the last batch is
    // exactly [A, A, B, A].
    expectTwinsAgree(spec, reqs, 4, 24, 1);

    // The same stream, one warm-up batch then the memo batch, against
    // per-access driving.
    const CacheConfig config = parseCacheSpec(spec);
    const auto per = config.build("per-access");
    const auto bat = config.build("batched");
    std::vector<AccessOutcome> expect;
    for (const MemAccess &r : reqs)
        expect.push_back(per->access(r));
    std::vector<AccessOutcome> out(reqs.size());
    bat->accessBatch({reqs.data(), 64}, out.data());
    bat->accessBatch({reqs.data() + 64, 4}, out.data() + 64);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(out[i].hit, expect[i].hit) << spec << " access " << i;
        EXPECT_EQ(out[i].latency, expect[i].latency)
            << spec << " access " << i;
    }
    EXPECT_TRUE(out[64].hit && out[65].hit) << spec;
    EXPECT_FALSE(out[66].hit) << spec;
    EXPECT_FALSE(out[67].hit) << spec << ": B evicted A";
    EXPECT_EQ(bat->stats().hits, per->stats().hits) << spec;
    EXPECT_EQ(bat->stats().misses, per->stats().misses) << spec;
    EXPECT_EQ(bat->stats().writethroughs, per->stats().writethroughs)
        << spec;
    EXPECT_TRUE(std::ranges::equal(bat->setUsage(), per->setUsage()))
        << spec;
}

TEST(BatchEquivalence, LastBlockMemoDiesWithTheEvictedBlock)
{
    // 16 kB, 32 B lines: direct-mapped sets repeat every 16 kB, 2-way
    // sets every 8 kB. Under LRU, B could never evict A right after A's
    // two hits, so the 2-way cases use FIFO: A was filled before the
    // other block of its set, so B replaces A.
    const Addr a = 0x40;
    memoCase("dm:16kB", a, a + 0x4000, a + 0x40, AccessType::Read);
    for (const char *spec :
         {"sa:16kB,2w,repl=fifo", "sa:16kB,2w,repl=fifo,wp=wt"}) {
        memoCase(spec, a, a + 0x4000, a + 0x2000, AccessType::Read);
        // Under write-through the second A is a store hit, which falls
        // through to the engine (it forwards the store) and clears the
        // memo.
        memoCase(spec, a, a + 0x4000, a + 0x2000, AccessType::Write);
    }

    // MF8 BAS8: B shares A's group and PD pattern but not its upper
    // field, so B's PD hit forces the replacement of A's line.
    const std::string mf8 = "bcache:16kB,mf=8,bas=8";
    const BCacheLayout l = deriveLayout(
        seededBCacheParams(parseCacheSpec(mf8), 1));
    const Addr other_upper = Addr{1} << (5 + l.npiBits);
    const Addr same_pattern = Addr{1} << (5 + l.npiBits + l.piBits);
    for (const std::string &spec : {mf8, mf8 + ",wp=wt"})
        for (const AccessType second : {AccessType::Read, AccessType::Write})
            memoCase(spec, a, a + same_pattern, a + other_upper, second);
}

TEST(BatchEquivalence, HitHeavyStreamsUseTheMemo)
{
    // The pinned streams above are miss-heavy, so the fast paths leave
    // their memo off; these run with it on.
    for (const char *spec :
         {"sa:16kB,4w", "sa:16kB,8w,wp=wt", "sa:16kB,32w,repl=fifo",
          "bcache:16kB,mf=8,bas=8", "bcache:16kB,mf=4,bas=8,wp=wt",
          "hac:16kB"})
    {
        const std::vector<MemAccess> reqs =
            makeHitHeavyStream(100000, 0x1ce);
        expectTwinsAgree(spec, reqs, 256, 20, 0x1ce);
        // The premise: a miss share low enough to turn the memo on.
        const auto cache = parseCacheSpec(spec).build("c");
        for (const MemAccess &r : reqs)
            cache->access(r);
        EXPECT_LT(cache->stats().misses * 25, cache->stats().accesses)
            << spec;
    }
}

TEST(BatchEquivalence, EveryRegisteredKindHasATwinSampler)
{
    // A registry entry without a sampler would never be twin-checked by
    // the twin campaign; each sampled spec must also name its own kind.
    for (const CacheSpecEntry &e : cacheSpecEntries()) {
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
