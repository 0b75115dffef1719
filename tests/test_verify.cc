/**
 * @file
 * Unit tests for the verify/ differential-oracle subsystem: the tracking
 * memory's event log, clean-run agreement across configurations (including
 * both exact-equivalence limits), and — by injecting faults into the DUT —
 * that the checker actually catches unique-decoding violations, lost
 * writes, and out-of-band state changes.
 */

#include <gtest/gtest.h>

#include "common/strings.hh"
#include "verify/campaign.hh"
#include "verify/oracle_checker.hh"
#include "verify/tracking_memory.hh"

using namespace bsim;

namespace {

BCacheParams
smallParams(std::uint32_t mf, std::uint32_t bas, WritePolicy wp)
{
    BCacheParams p;
    p.sizeBytes = 2 * 1024;
    p.lineBytes = 32;
    p.mf = mf;
    p.bas = bas;
    p.writePolicy = wp;
    return p;
}

/** Drive a deterministic stream through a checker; true if it stays ok. */
bool
driveClean(const BCacheParams &params, unsigned addr_bits,
           std::uint64_t steps, std::string *modes = nullptr)
{
    TrackingMemory mem;
    BCache dut("dut", params, 1, &mem);
    OracleOptions opts;
    opts.addrBits = addr_bits;
    opts.residencyScanInterval = 64;
    OracleChecker checker(dut, mem, opts);
    if (modes)
        *modes = checker.oracleModes();

    CacheConfig config = parseCacheSpec(
        "bcache:" + sizeString(params.sizeBytes) +
        ",mf=" + std::to_string(params.mf) +
        ",bas=" + std::to_string(params.bas) +
        ",line=" + std::to_string(params.lineBytes));
    config.repl = params.repl;
    config.writePolicy = params.writePolicy;
    AccessStreamPtr stream = makeCaseStream(
        {.cacheSpec = printCacheSpec(config), .addrBits = addr_bits,
         .seed = 42});
    for (std::uint64_t i = 0; i < steps; ++i) {
        if (i % 37 == 36)
            checker.onWriteback(stream->next().addr);
        else
            checker.onAccess(stream->next());
    }
    checker.finish();
    return checker.ok();
}

TEST(TrackingMemory, LogsEventsInOrderAndCountsWrites)
{
    TrackingMemory mem(100);
    EXPECT_EQ(mem.access({0x1000, AccessType::Read}).latency, 100u);
    mem.writeback(0x2000);
    mem.access({0x3000, AccessType::Write});

    const std::vector<MemEvent> events = mem.drain();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0], (MemEvent{MemEvent::Kind::Read, 0x1000}));
    EXPECT_EQ(events[1], (MemEvent{MemEvent::Kind::Writeback, 0x2000}));
    EXPECT_EQ(events[2], (MemEvent{MemEvent::Kind::Write, 0x3000}));
    EXPECT_TRUE(mem.pending().empty()) << "drain() must clear the log";

    EXPECT_EQ(mem.writesTo(0x2000), 1u);
    EXPECT_EQ(mem.writesTo(0x1000), 0u);
    EXPECT_EQ(mem.reads(), 1u);
    EXPECT_EQ(mem.writes(), 1u);
    EXPECT_EQ(mem.writebacks(), 1u);

    mem.reset();
    EXPECT_EQ(mem.writesTo(0x2000), 0u);
    EXPECT_TRUE(mem.pending().empty());
}

TEST(OracleChecker, CleanRunMidRangeConfigStaysOk)
{
    // MF=4, BAS=4: no exact equivalent exists; the PD shadow carries the
    // whole check.
    std::string modes;
    EXPECT_TRUE(driveClean(
        smallParams(4, 4, WritePolicy::WriteBackAllocate), 20, 3000,
        &modes));
    EXPECT_EQ(modes, "shadow");
}

TEST(OracleChecker, CleanRunEngagesDirectMappedOracle)
{
    std::string modes;
    EXPECT_TRUE(driveClean(
        smallParams(8, 1, WritePolicy::WriteBackAllocate), 20, 3000,
        &modes));
    EXPECT_EQ(modes, "shadow+dm");
}

TEST(OracleChecker, CleanRunEngagesSetAssocOracle)
{
    // 2kB/32B -> OI=6, BAS=4 -> NPI=4. addrBits=20, offset=5: upper is
    // 11 bits, so PI = log2(BAS) + log2(MF) >= 11 needs MF = 2^9.
    std::string modes;
    EXPECT_TRUE(driveClean(
        smallParams(512, 4, WritePolicy::WriteBackAllocate), 20, 3000,
        &modes));
    EXPECT_EQ(modes, "shadow+sa");
}

TEST(OracleChecker, CleanRunWriteThroughStaysOk)
{
    EXPECT_TRUE(driveClean(
        smallParams(4, 4, WritePolicy::WriteThroughNoAllocate), 20, 3000));
    EXPECT_TRUE(driveClean(
        smallParams(512, 4, WritePolicy::WriteThroughNoAllocate), 20,
        3000));
}

TEST(OracleChecker, CatchesUniqueDecodingViolation)
{
    TrackingMemory mem;
    BCache dut("dut", smallParams(4, 4, WritePolicy::WriteBackAllocate),
               1, &mem);
    OracleChecker checker(dut, mem, {20, 64, 8});

    // Fill two ways of group 0 with distinct PD patterns (uppers 0 and 1),
    // then corrupt way 1 to collide with way 0 — the soft-error scenario
    // the PD CAM fears.
    checker.onAccess({0x0, AccessType::Read});
    checker.onAccess({0x200, AccessType::Read});
    ASSERT_TRUE(checker.ok());

    dut.debugCorruptPd(0, 1, 0);
    mem.drain(); // fault injection is not traffic

    checker.onAccess({0x0, AccessType::Read});
    EXPECT_FALSE(checker.ok());
    bool found = false;
    for (const Divergence &d : checker.divergences())
        found |= d.what.find("unique-decoding") != std::string::npos;
    EXPECT_TRUE(found) << "expected a unique-decoding divergence";
}

TEST(OracleChecker, CatchesLostWrite)
{
    TrackingMemory mem;
    BCache dut("dut", smallParams(4, 4, WritePolicy::WriteBackAllocate),
               1, &mem);
    OracleChecker checker(dut, mem, {20, 0, 8});

    // Dirty a block, then corrupt its PD pattern: the block becomes
    // unreachable, so its store can never be written back.
    // 0x40 with 32B lines and NPI=4 lands in group 2, way 0.
    checker.onAccess({0x40, AccessType::Write});
    ASSERT_TRUE(checker.ok());
    dut.debugCorruptPd(2, 0, 0x7);
    mem.drain();

    checker.finish();
    EXPECT_FALSE(checker.ok());
    bool found = false;
    for (const Divergence &d : checker.divergences())
        found |= d.what.find("lost write") != std::string::npos;
    EXPECT_TRUE(found) << "expected a lost-write divergence";
}

TEST(OracleChecker, CatchesOutOfBandStateChange)
{
    TrackingMemory mem;
    BCache dut("dut", smallParams(4, 4, WritePolicy::WriteBackAllocate),
               1, &mem);
    OracleChecker checker(dut, mem, {20, 64, 8});

    checker.onAccess({0x100, AccessType::Read});
    ASSERT_TRUE(checker.ok());

    // Mutate the DUT behind the checker's back; the shadow must notice.
    dut.access({0x54321, AccessType::Write});
    mem.drain();

    for (int i = 0; i < 200 && checker.ok(); ++i)
        checker.onAccess({Addr(0x100 + 0x20 * i), AccessType::Read});
    checker.finish();
    EXPECT_FALSE(checker.ok());
}

TEST(Fuzz, SpecsAreDeterministicAndValid)
{
    for (std::uint64_t seed = 1; seed < 60; ++seed) {
        const VerifyCase a = sampleCase("bcache", seed);
        const VerifyCase b = sampleCase("bcache", seed);
        EXPECT_EQ(a.toString(), b.toString());
        const BCacheLayout l = // must not fatal
            deriveLayout(parseCacheSpec(a.cacheSpec).bcacheParams());
        EXPECT_GE(a.addrBits, 18u);
        EXPECT_LE(l.basLog, l.oi);
    }

    // The bcache row draws exactly what the retired B-Cache sampler
    // drew for these seeds: spec, address width, writeback fraction.
    const struct
    {
        std::uint64_t seed;
        const char *spec;
        unsigned addrBits;
        double writebackFraction;
    } pinned[] = {
        {1, "bcache:1kB,mf=64,bas=1,repl=random,wp=wt", 26, 0.00},
        {2, "bcache:2kB,mf=4,bas=16,repl=random,wp=wt,line=64", 22, 0.00},
        {3, "bcache:32kB,mf=2,bas=1,repl=plru,wp=wt,line=64", 19, 0.02},
        {4, "bcache:8kB,mf=16,bas=8,repl=random,line=64", 18, 0.02},
        {5, "bcache:8kB,mf=64,bas=4,line=64", 18, 0.02},
        {6, "bcache:2kB,mf=4096,bas=1,wp=wt", 23, 0.00},
        {7, "bcache:512B,mf=32,bas=8,repl=random,line=16", 22, 0.02},
        {8, "bcache:16kB,mf=64,bas=8,repl=fifo,wp=wt", 19, 0.00},
        {9, "bcache:1kB,mf=16,bas=4,repl=plru,line=64", 18, 0.02},
        {10, "bcache:32kB,mf=16,bas=8,repl=plru,wp=wt", 26, 0.00},
        {11, "bcache:512B,mf=32,bas=16,wp=wt", 18, 0.00},
        {12, "bcache:8kB,mf=64,bas=2,repl=random,wp=wt", 21, 0.00},
        {13, "bcache:16kB,mf=8,bas=16,repl=plru,wp=wt,line=16", 19, 0.02},
        {14, "bcache:4kB,mf=2,bas=1,repl=fifo,wp=wt", 26, 0.00},
        {15, "bcache:32kB,mf=16,bas=2,repl=plru,wp=wt", 20, 0.00},
        {16, "bcache:1kB,mf=8,bas=2,line=64", 23, 0.02},
    };
    for (const auto &p : pinned) {
        const VerifyCase c = sampleCase("bcache", p.seed);
        EXPECT_EQ(c.cacheSpec, p.spec) << "seed " << p.seed;
        EXPECT_EQ(c.addrBits, p.addrBits) << "seed " << p.seed;
        EXPECT_EQ(c.writebackFraction, p.writebackFraction)
            << "seed " << p.seed;
    }

    // The BAS = 1 and saturated-PI bias engages an exact oracle in a
    // share of cases (42 of these 200).
    int exact = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        exact += runOracleCase(sampleCase("bcache", seed), 0).oracleModes !=
                 "shadow";
    EXPECT_GT(exact, 0);
}

TEST(Fuzz, ShortCaseRunsCleanAndReproduces)
{
    const VerifyCase c = sampleCase("bcache", 7);
    const VerifyResult a = runOracleCase(c, 2000);
    const VerifyResult b = runOracleCase(c, 2000);
    EXPECT_TRUE(a.ok) << a.toString();
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.oracleModes, b.oracleModes);
}

} // namespace
