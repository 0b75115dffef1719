/** Unit tests for the µop generator and the OOO timing model. */

#include <gtest/gtest.h>

#include "cpu/ooo_core.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace bsim {
namespace {

SyntheticProgram
program(const char *bench, std::uint64_t seed = 1)
{
    return SyntheticProgram(makeSpecWorkload(bench, seed), seed);
}

CacheHierarchy
dmHierarchy()
{
    CacheHierarchy h;
    h.setL1I(parseCacheSpec("dm:16kB").build("L1I"));
    h.setL1D(parseCacheSpec("dm:16kB").build("L1D"));
    return h;
}

TEST(SyntheticProgram, MixMatchesProfile)
{
    SyntheticProgram p = program("gcc");
    const CpuProfile &prof = p.profile();
    std::uint64_t loads = 0, stores = 0, branches = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const MicroOp op = p.next();
        loads += op.cls == OpClass::Load;
        stores += op.cls == OpClass::Store;
        branches += op.cls == OpClass::Branch;
    }
    EXPECT_NEAR(double(loads) / n, prof.loadFrac, 0.01);
    EXPECT_NEAR(double(stores) / n, prof.storeFrac, 0.01);
    EXPECT_NEAR(double(branches) / n, prof.branchFrac, 0.01);
}

TEST(SyntheticProgram, MemoryOpsCarryAddresses)
{
    SyntheticProgram p = program("swim");
    for (int i = 0; i < 10000; ++i) {
        const MicroOp op = p.next();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            EXPECT_NE(op.mem, 0u);
        }
        EXPECT_NE(op.pc, 0u);
    }
}

TEST(SyntheticProgram, ResetReplays)
{
    // A replay is a second program built with the same seed.
    SyntheticProgram p = program("mcf");
    std::vector<Addr> pcs;
    for (int i = 0; i < 500; ++i)
        pcs.push_back(p.next().pc);
    SyntheticProgram replay = program("mcf");
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(replay.next().pc, pcs[i]);
}

TEST(SyntheticProgram, DependencesBounded)
{
    SyntheticProgram p = program("gcc");
    for (int i = 0; i < 10000; ++i) {
        const MicroOp op = p.next();
        EXPECT_LE(op.dep1, 15);
        EXPECT_LE(op.dep2, 15);
    }
}

TEST(SyntheticProgram, BatchSizesAgree)
{
    // The program reads its PCs and data addresses ahead in chunks of
    // its own, so any split into nextBatch() calls, including one that
    // ends a data chunk mid-batch, yields next()'s µops.
    constexpr std::size_t kUops = 5000;
    SyntheticProgram one = program("equake");
    std::vector<MicroOp> want(kUops);
    for (MicroOp &op : want)
        op = one.next();
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1000}, std::size_t{1024}}) {
        SCOPED_TRACE(chunk);
        SyntheticProgram p = program("equake");
        std::vector<MicroOp> got(kUops);
        for (std::size_t at = 0; at < kUops; at += chunk)
            p.nextBatch(got.data() + at, std::min(chunk, kUops - at));
        for (std::size_t i = 0; i < kUops; ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(got[i].cls, want[i].cls);
            EXPECT_EQ(got[i].pc, want[i].pc);
            EXPECT_EQ(got[i].mem, want[i].mem);
            EXPECT_EQ(got[i].dep1, want[i].dep1);
            EXPECT_EQ(got[i].dep2, want[i].dep2);
            EXPECT_EQ(got[i].latency, want[i].latency);
            EXPECT_EQ(got[i].mispredicted, want[i].mispredicted);
        }
    }
}

TEST(OooCore, IpcNeverExceedsWidth)
{
    CacheHierarchy h = dmHierarchy();
    OooCore core(CoreParams{}, h);
    SyntheticProgram p = program("gcc");
    const CpuResult r = core.run(p, 200000);
    EXPECT_GT(r.ipc(), 0.1);
    EXPECT_LE(r.ipc(), 4.0);
    EXPECT_EQ(r.uops, 200000u);
}

TEST(OooCore, CountsPerClass)
{
    CacheHierarchy h = dmHierarchy();
    OooCore core(CoreParams{}, h);
    SyntheticProgram p = program("swim");
    const CpuResult r = core.run(p, 50000);
    std::uint64_t total = 0;
    for (auto c : r.perClass)
        total += c;
    EXPECT_EQ(total, 50000u);
}

TEST(OooCore, DrivesBothCaches)
{
    CacheHierarchy h = dmHierarchy();
    OooCore core(CoreParams{}, h);
    SyntheticProgram p = program("gcc");
    core.run(p, 50000);
    EXPECT_GT(h.l1i().stats().accesses, 1000u);
    EXPECT_GT(h.l1d().stats().accesses, 5000u);
}

TEST(OooCore, SlowerMemoryLowersIpc)
{
    HierarchyParams slow;
    slow.memLatency = 400;
    CacheHierarchy hs(slow);
    hs.setL1I(parseCacheSpec("dm:16kB").build("L1I"));
    hs.setL1D(parseCacheSpec("dm:16kB").build("L1D"));
    CacheHierarchy hf = dmHierarchy();

    OooCore cs(CoreParams{}, hs), cf(CoreParams{}, hf);
    SyntheticProgram ps = program("equake"), pf = program("equake");
    const double ipc_slow = cs.run(ps, 150000).ipc();
    const double ipc_fast = cf.run(pf, 150000).ipc();
    EXPECT_LT(ipc_slow, ipc_fast);
}

TEST(OooCore, WiderWindowHelpsOrEqual)
{
    CoreParams small;
    small.windowSize = 4;
    CoreParams big;
    big.windowSize = 64;
    CacheHierarchy h1 = dmHierarchy(), h2 = dmHierarchy();
    OooCore c1(small, h1), c2(big, h2);
    SyntheticProgram p1 = program("gcc"), p2 = program("gcc");
    EXPECT_LE(c1.run(p1, 100000).ipc(), c2.run(p2, 100000).ipc() + 0.05);
}

TEST(OooCore, BetterL1LowersCpi)
{
    // The paper's Figure 8 mechanism: an 8-way L1 beats the
    // direct-mapped baseline on a conflict-heavy benchmark.
    CacheHierarchy hdm = dmHierarchy();
    CacheHierarchy h8;
    h8.setL1I(parseCacheSpec("sa:16kB,8w").build("L1I"));
    h8.setL1D(parseCacheSpec("sa:16kB,8w").build("L1D"));
    OooCore cdm(CoreParams{}, hdm), c8(CoreParams{}, h8);
    SyntheticProgram pdm = program("equake"), p8 = program("equake");
    const double ipc_dm = cdm.run(pdm, 200000).ipc();
    const double ipc_8w = c8.run(p8, 200000).ipc();
    EXPECT_GT(ipc_8w, ipc_dm * 1.02);
}

TEST(OooCore, WiderFetchHelpsOrEqual)
{
    CoreParams narrow;
    narrow.fetchWidth = 1;
    narrow.commitWidth = 1;
    CacheHierarchy h1 = dmHierarchy(), h2 = dmHierarchy();
    OooCore c1(narrow, h1), c2(CoreParams{}, h2);
    SyntheticProgram p1 = program("vpr"), p2 = program("vpr");
    EXPECT_LE(c1.run(p1, 100000).ipc(),
              c2.run(p2, 100000).ipc() + 0.01);
}

TEST(OooCore, MoreFunctionalUnitsHelpOrEqual)
{
    CoreParams few;
    few.numFus = 1;
    CacheHierarchy h1 = dmHierarchy(), h2 = dmHierarchy();
    OooCore c1(few, h1), c2(CoreParams{}, h2);
    SyntheticProgram p1 = program("gcc"), p2 = program("gcc");
    const double ipc1 = c1.run(p1, 100000).ipc();
    const double ipc4 = c2.run(p2, 100000).ipc();
    EXPECT_LE(ipc1, ipc4 + 0.01);
    EXPECT_LE(ipc1, 1.0 + 1e-9); // one FU caps issue throughput
}

TEST(OooCore, HigherMispredictPenaltyLowersIpc)
{
    CoreParams cheap, dear;
    cheap.mispredictPenalty = 1;
    dear.mispredictPenalty = 30;
    CacheHierarchy h1 = dmHierarchy(), h2 = dmHierarchy();
    OooCore c1(cheap, h1), c2(dear, h2);
    SyntheticProgram p1 = program("gcc"), p2 = program("gcc");
    EXPECT_GT(c1.run(p1, 100000).ipc(), c2.run(p2, 100000).ipc());
}

TEST(OooCore, StallAttributionTracksCacheQuality)
{
    // A better L1 must reduce the attributed load-miss and I$-stall
    // penalty cycles, and mispredict counts must be cache-independent.
    CacheHierarchy hdm = dmHierarchy();
    CacheHierarchy h8;
    h8.setL1I(parseCacheSpec("sa:16kB,8w").build("L1I"));
    h8.setL1D(parseCacheSpec("sa:16kB,8w").build("L1D"));
    OooCore cdm(CoreParams{}, hdm), c8(CoreParams{}, h8);
    SyntheticProgram pdm = program("equake"), p8 = program("equake");
    const CpuResult rdm = cdm.run(pdm, 150000);
    const CpuResult r8 = c8.run(p8, 150000);
    EXPECT_GT(rdm.loadMissCycles, r8.loadMissCycles);
    EXPECT_GE(rdm.icacheStallCycles, r8.icacheStallCycles);
    EXPECT_EQ(rdm.mispredicts, r8.mispredicts);
    EXPECT_EQ(rdm.mispredictCycles,
              rdm.mispredicts * CoreParams{}.mispredictPenalty);
}

/** Every counter a bit-identical run must reproduce. */
void
expectSameCpu(const CpuResult &a, const CpuResult &b)
{
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.cycles, b.cycles);
    for (std::size_t c = 0; c < 5; ++c)
        EXPECT_EQ(a.perClass[c], b.perClass[c]) << opClassName(OpClass(c));
    EXPECT_EQ(a.icacheStallCycles, b.icacheStallCycles);
    EXPECT_EQ(a.loadMissCycles, b.loadMissCycles);
    EXPECT_EQ(a.mispredictCycles, b.mispredictCycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.writethroughs, b.writethroughs);
    EXPECT_EQ(a.refills, b.refills);
    for (const AccessType t :
         {AccessType::Read, AccessType::Write, AccessType::Fetch}) {
        EXPECT_EQ(a.typeAccess(t), b.typeAccess(t));
        EXPECT_EQ(a.typeMiss(t), b.typeMiss(t));
    }
}

TEST(OooCore, UnevenStepsMatchOneRun)
{
    // step() carries the whole pipeline across calls: batches of 1, 7
    // and 1024 µops, then the rest, end exactly where one run() does,
    // on the core's counters and on every level of the hierarchy. A
    // fresh core needs no begin(); the stepped one calls it anyway.
    constexpr std::uint64_t kUops = 60000;
    auto bcacheHierarchy = [] {
        CacheHierarchy h;
        h.setL1I(parseCacheSpec("bcache:16kB,mf=8,bas=8").build("L1I"));
        h.setL1D(parseCacheSpec("bcache:16kB,mf=8,bas=8").build("L1D"));
        return h;
    };
    CacheHierarchy hr = bcacheHierarchy(), hs = bcacheHierarchy();
    OooCore whole(CoreParams{}, hr);
    SyntheticProgram pr = program("equake");
    const CpuResult ran = whole.run(pr, kUops);

    OooCore stepped(CoreParams{}, hs);
    SyntheticProgram ps = program("equake");
    std::vector<MicroOp> ops(kUops);
    for (MicroOp &op : ops)
        op = ps.next();
    stepped.begin();
    std::size_t at = 0;
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{1024},
          std::size_t(kUops) - 1032}) {
        stepped.step({ops.data() + at, n});
        at += n;
    }
    ASSERT_EQ(at, kUops);
    const CpuResult got = stepped.result();

    expectSameCpu(ran, got);
    expectSameStats(hr.l1i().stats(), hs.l1i().stats());
    expectSameStats(hr.l1d().stats(), hs.l1d().stats());
    expectSameStats(hr.l2().stats(), hs.l2().stats());
    EXPECT_GT(got.loadMissCycles, 0u);

    // The extreme: every µop its own step, so every cursor crosses a
    // step boundary at every µop.
    CacheHierarchy h1 = bcacheHierarchy();
    OooCore single(CoreParams{}, h1);
    for (const MicroOp &op : ops)
        single.step({&op, 1});
    expectSameCpu(ran, single.result());
    expectSameStats(hr.l1i().stats(), h1.l1i().stats());
    expectSameStats(hr.l1d().stats(), h1.l1d().stats());
    expectSameStats(hr.l2().stats(), h1.l2().stats());
}

TEST(OooCore, DependencesBeyondTheWindowNeverDelay)
{
    // SyntheticProgram draws dependence distances up to 15. A producer
    // more than windowSize µops back committed before the consumer's
    // window slot was freed, so it never delays the consumer: the same
    // µops with those dependences zeroed run to the same counters.
    constexpr std::size_t kUops = 40000;
    SyntheticProgram p = program("gcc");
    std::vector<MicroOp> ops(kUops);
    p.nextBatch(ops.data(), kUops);
    for (const std::uint32_t window : {4u, 8u}) {
        SCOPED_TRACE(window);
        std::vector<MicroOp> near = ops;
        std::size_t far = 0;
        for (MicroOp &op : near)
            for (std::uint8_t *dep : {&op.dep1, &op.dep2})
                if (*dep > window) {
                    *dep = 0;
                    ++far;
                }
        EXPECT_GT(far, 0u);
        CoreParams params;
        params.windowSize = window;
        CacheHierarchy ha = dmHierarchy(), hb = dmHierarchy();
        OooCore a(params, ha), b(params, hb);
        a.step(ops);
        b.step(near);
        expectSameCpu(a.result(), b.result());
    }
}

TEST(OooCore, InterleavedTimestampPassMatchesOneCoreAtATime)
{
    // runTimedEach() runs each member's memory pass, then one timestamp
    // pass over all of them in blocks of kLanes. With 1, 6 and more than
    // kLanes members of mixed kinds (so the lanes see different
    // latencies), each result equals its config's own OooCore::run.
    // The length ends in a partial batch.
    constexpr std::uint64_t kUops = 3 * OooCore::kBatchLen + 333;
    constexpr std::uint64_t kSeed = 7;
    std::vector<CacheConfig> all;
    for (const char *spec :
         {"dm:16kB", "bcache:16kB,mf=8,bas=8", "sa:16kB,4w",
          "dm:16kB+victim:16", "column:16kB", "xor:16kB", "skew:16kB",
          "pad:16kB,2w,bits=5", "sa:8kB,2w", "bcache:8kB,mf=4,bas=4",
          "hac:16kB", "dm:4kB"})
        all.push_back(parseCacheSpec(spec));
    ASSERT_GT(all.size(), OooCore::kLanes);
    for (const std::size_t members : {std::size_t{1}, std::size_t{6},
                                      all.size()}) {
        SCOPED_TRACE(members);
        const std::vector<CacheConfig> configs(all.begin(),
                                               all.begin() + members);
        const std::vector<TimedDutRun> runs =
            runTimedEach("equake", configs, kUops, kSeed);
        ASSERT_EQ(runs.size(), members);
        for (std::size_t i = 0; i < members; ++i) {
            SCOPED_TRACE(configs[i].label);
            ASSERT_TRUE(runs[i].result.has_value());
            const TimedResult &got = *runs[i].result;
            CacheHierarchy h;
            h.setL1I(configs[i].build("L1I", 1, nullptr));
            h.setL1D(configs[i].build("L1D", 1, nullptr));
            OooCore own(CoreParams{}, h);
            SyntheticProgram prog(makeSpecWorkload("equake", kSeed),
                                  kSeed ^ 0xc0ffee);
            expectSameCpu(own.run(prog, kUops), got.cpu);
            expectSameStats(h.l1i().stats(), got.l1i);
            expectSameStats(h.l1d().stats(), got.l1d);
            expectSameStats(h.l2().stats(), got.l2);
        }
    }
}

TEST(OooCore, UnitWithMixedFetchLinesMatchesOwnRuns)
{
    // runTimedEach() decodes each batch once per L1I line size: here
    // 32 bytes for two members, 64 and 16 bytes for one each. Each
    // member walks its own line size's decode and ends where its own
    // runTimed() does. The length ends in a partial batch.
    constexpr std::uint64_t kUops = 2 * OooCore::kBatchLen + 77;
    constexpr std::uint64_t kSeed = 11;
    std::vector<CacheConfig> configs;
    for (const char *spec : {"dm:16kB", "dm:16kB,line=64",
                             "bcache:16kB,mf=8,bas=8", "sa:8kB,2w,line=16"})
        configs.push_back(parseCacheSpec(spec));
    const std::vector<TimedDutRun> runs =
        runTimedEach("gcc", configs, kUops, kSeed);
    ASSERT_EQ(runs.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].label);
        ASSERT_TRUE(runs[i].result.has_value());
        const TimedResult &got = *runs[i].result;
        const TimedResult own = runTimed("gcc", configs[i], kUops, kSeed);
        expectSameCpu(own.cpu, got.cpu);
        expectSameStats(own.l1i, got.l1i);
        expectSameStats(own.l1d, got.l1d);
        expectSameStats(own.l2, got.l2);
        EXPECT_GT(got.l1i.misses, 0u);
    }
}

TEST(OooCore, BeginStartsAFreshRun)
{
    // A second run() on the same core restarts the pipeline (the
    // hierarchy keeps its state), so it equals a fresh core's run over
    // a hierarchy warmed the same way.
    CacheHierarchy h1 = dmHierarchy(), h2 = dmHierarchy();
    OooCore c1(CoreParams{}, h1), c2(CoreParams{}, h2);
    SyntheticProgram p1 = program("gcc"), p2 = program("gcc");
    c1.run(p1, 20000);
    c2.run(p2, 20000);
    OooCore fresh(CoreParams{}, h2);
    expectSameCpu(c1.run(p1, 20000), fresh.run(p2, 20000));
}

TEST(OooCore, DeterministicRuns)
{
    CacheHierarchy h1 = dmHierarchy(), h2 = dmHierarchy();
    OooCore c1(CoreParams{}, h1), c2(CoreParams{}, h2);
    SyntheticProgram p1 = program("vpr"), p2 = program("vpr");
    EXPECT_EQ(c1.run(p1, 60000).cycles, c2.run(p2, 60000).cycles);
}

} // namespace
} // namespace bsim
