/**
 * Tests for the observe/ layer (ctest -L observe): the CacheObserver
 * hook stream collected by StatsObserver must agree with the cache's
 * own counters (per-line histogram, CacheStats, BCache PD state), be
 * identical between the per-access and batched paths, and merge/export
 * correctly. Also the counter-merge regression tests: CacheStats and
 * PdStats operator+= round-trip every field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/json.hh"
#include "observe/export.hh"
#include "observe/observer.hh"
#include "power/drowsy.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"

namespace bsim {
namespace {

/** A conflict-heavy stream with a write mix, like a real workload. */
std::vector<MemAccess>
capturedStream(std::size_t n)
{
    StridedConflictStream gen(0x40000, 16 * 1024, 12);
    std::vector<MemAccess> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        MemAccess a = gen.next();
        if (i % 4 == 3)
            a.type = AccessType::Write;
        t.push_back(a);
    }
    return t;
}

void
expectReportsEqual(const ObserverReport &a, const ObserverReport &b)
{
    ASSERT_EQ(a.perSet.size(), b.perSet.size());
    for (std::size_t i = 0; i < a.perSet.size(); ++i)
        EXPECT_TRUE(a.perSet[i] == b.perSet[i]) << i;
    EXPECT_EQ(a.installs, b.installs);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.pdReprograms, b.pdReprograms);
    EXPECT_EQ(a.intervalLen, b.intervalLen);
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (std::size_t i = 0; i < a.intervals.size(); ++i)
        EXPECT_TRUE(a.intervals[i] == b.intervals[i]) << i;
    EXPECT_EQ(a.pdReprogramsPerGroup, b.pdReprogramsPerGroup);
    EXPECT_EQ(a.pdOccupancy, b.pdOccupancy);
}

/**
 * Regression for the shard-merge bug class: a CacheStats with every
 * field distinct must round-trip through operator+= with nothing
 * dropped. (The sizeof static_assert in cache_stats.cc catches a new
 * field at compile time; this pins the arithmetic.)
 */
TEST(CounterMerge, CacheStatsMergeRoundTripsEveryField)
{
    auto mk = [](std::uint64_t base) {
        CacheStats s;
        // Distinct per-type access/miss counts in every slot.
        for (std::uint64_t i = 0; i < base + 1; ++i)
            s.recordAccess(AccessType::Read, i % 2 == 0);
        for (std::uint64_t i = 0; i < base + 2; ++i)
            s.recordAccess(AccessType::Write, i % 3 == 0);
        for (std::uint64_t i = 0; i < base + 3; ++i)
            s.recordAccess(AccessType::Fetch, false);
        s.writebacks = base + 4;
        s.writethroughs = base + 5;
        s.refills = base + 6;
        return s;
    };
    const CacheStats a = mk(10), b = mk(100);
    CacheStats sum = a;
    sum += b;

    EXPECT_EQ(sum.accesses, a.accesses + b.accesses);
    EXPECT_EQ(sum.hits, a.hits + b.hits);
    EXPECT_EQ(sum.misses, a.misses + b.misses);
    EXPECT_EQ(sum.readAccesses(), a.readAccesses() + b.readAccesses());
    EXPECT_EQ(sum.readMisses(), a.readMisses() + b.readMisses());
    EXPECT_EQ(sum.writeAccesses(),
              a.writeAccesses() + b.writeAccesses());
    EXPECT_EQ(sum.writeMisses(), a.writeMisses() + b.writeMisses());
    EXPECT_EQ(sum.fetchAccesses(),
              a.fetchAccesses() + b.fetchAccesses());
    EXPECT_EQ(sum.fetchMisses(), a.fetchMisses() + b.fetchMisses());
    EXPECT_EQ(sum.writebacks, a.writebacks + b.writebacks);
    EXPECT_EQ(sum.writethroughs, a.writethroughs + b.writethroughs);
    EXPECT_EQ(sum.refills, a.refills + b.refills);
}

TEST(CounterMerge, PdStatsMergeRoundTripsEveryField)
{
    PdStats a, b;
    a.pdHitCacheMiss = 3;
    a.pdMiss = 7;
    b.pdHitCacheMiss = 11;
    b.pdMiss = 13;
    PdStats sum = a;
    sum += b;
    EXPECT_EQ(sum.pdHitCacheMiss, 14u);
    EXPECT_EQ(sum.pdMiss, 20u);
}

/**
 * The harvested report carries the cache's own per-line histogram and
 * writeback total, and the observer's hook stream agrees with them: its
 * interval windows add up to the histogram's accesses and misses and to
 * the cache's writebacks, on every variant and write policy.
 */
TEST(StatsObserver, MatchesBuiltInUsageTracker)
{
    const auto stream = capturedStream(6000);
    CacheConfig wt = parseCacheSpec("dm:16kB");
    wt.writePolicy = WritePolicy::WriteThroughNoAllocate;
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"),
          parseCacheSpec("bcache:16kB,mf=8,bas=8"),
          parseCacheSpec("sa:16kB,4w"),
          parseCacheSpec("victim:16kB,16e"), wt}) {
        auto cache = cfg.build(cfg.label, 1, nullptr);
        const auto obs = attachObserver(*cache, {true, 256});
        ASSERT_TRUE(obs);
        for (const MemAccess &a : stream)
            cache->access(a);

        const ObserverReport rep = *harvestObserver(obs.get(), *cache);
        const std::span<const SetUsage> usage = cache->setUsage();
        ASSERT_EQ(rep.perSet.size(), usage.size()) << cfg.label;
        EXPECT_TRUE(std::equal(usage.begin(), usage.end(),
                               rep.perSet.begin()))
            << cfg.label;
        EXPECT_EQ(rep.writebacks, cache->stats().writebacks)
            << cfg.label;

        IntervalSample hooks;
        for (const IntervalSample &s : rep.intervals) {
            hooks.accesses += s.accesses;
            hooks.misses += s.misses;
            hooks.writebacks += s.writebacks;
        }
        std::uint64_t accesses = 0, misses = 0;
        for (const SetUsage &u : usage) {
            accesses += u.accesses();
            misses += u.misses;
        }
        EXPECT_EQ(hooks.accesses, accesses) << cfg.label;
        EXPECT_EQ(hooks.misses, misses) << cfg.label;
        EXPECT_EQ(hooks.writebacks, cache->stats().writebacks)
            << cfg.label;
    }
}

/** Same hook stream whether accesses go one at a time or batched. */
TEST(StatsObserver, PerAccessAndBatchedPathsProduceIdenticalReports)
{
    const auto stream = capturedStream(5000);
    for (const CacheConfig &cfg :
         {parseCacheSpec("dm:16kB"),
          parseCacheSpec("bcache:16kB,mf=8,bas=8")}) {
        ObserverConfig oc;
        oc.enabled = true;
        oc.intervalLen = 512;

        auto serial = cfg.build(cfg.label, 1, nullptr);
        const auto sobs = attachObserver(*serial, oc);
        for (const MemAccess &a : stream)
            serial->access(a);

        auto batched = cfg.build(cfg.label, 1, nullptr);
        const auto bobs = attachObserver(*batched, oc);
        std::vector<AccessOutcome> outs(stream.size());
        for (std::size_t i = 0; i < stream.size(); i += 192)
            batched->accessBatch(
                {stream.data() + i,
                 std::min<std::size_t>(192, stream.size() - i)},
                outs.data());

        expectReportsEqual(*harvestObserver(sobs.get(), *serial),
                           *harvestObserver(bobs.get(), *batched));
    }
}

/**
 * @p Observer plus a per-line count of the onLineAccess calls the cache
 * makes. With @p force it claims to consume line accesses whatever the
 * observer says, which is how every observer was fed before caches
 * asked consumesLineAccess().
 */
template <class Observer>
class Counting : public Observer
{
  public:
    template <class... Args>
    Counting(std::size_t num_lines, bool force, Args &&...args)
        : Observer(num_lines, std::forward<Args>(args)...),
          seen(num_lines), force_(force)
    {
    }

    bool
    consumesLineAccess() const override
    {
        return force_ || Observer::consumesLineAccess();
    }

    void
    onLineAccess(std::size_t line, bool hit) override
    {
        ++(hit ? seen[line].hits : seen[line].misses);
        Observer::onLineAccess(line, hit);
    }

    std::vector<SetUsage> seen;

  private:
    bool force_;
};

/** The organisations whose hit paths differ: dm, 4-way, MF8, victim16. */
std::vector<CacheConfig>
deliveryConfigs()
{
    return {parseCacheSpec("dm:16kB"),
            parseCacheSpec("sa:16kB,4w"),
            parseCacheSpec("bcache:16kB,mf=8,bas=8"),
            parseCacheSpec("victim:16kB,16e")};
}

/**
 * The conflict capture followed by a real data stream: misses and
 * victim-buffer hits, then mostly main-array hits, with writes in both.
 */
std::vector<MemAccess>
deliveryStream()
{
    std::vector<MemAccess> t = capturedStream(3000);
    SpecWorkload wl = makeSpecWorkload("gcc", 7);
    std::vector<MemAccess> data(5000);
    wl.data->nextBatch(data.data(), data.size());
    t.insert(t.end(), data.begin(), data.end());
    return t;
}

/** Drive @p stream one access at a time, or in batches of 192. */
void
drive(BaseCache &cache, const std::vector<MemAccess> &stream, bool batched)
{
    if (!batched) {
        for (const MemAccess &a : stream)
            cache.access(a);
        return;
    }
    std::vector<AccessOutcome> outs(192);
    for (std::size_t i = 0; i < stream.size(); i += 192)
        cache.accessBatch(
            {stream.data() + i, std::min<std::size_t>(192, stream.size() - i)},
            outs.data());
}

TEST(ObserverDelivery, NoLineAccessReachesAStatsObserverWithoutSeries)
{
    const auto stream = deliveryStream();
    for (const CacheConfig &cfg : deliveryConfigs())
        for (const bool batched : {false, true}) {
            SCOPED_TRACE(cfg.label + (batched ? " batched" : " scalar"));
            auto cache = cfg.build(cfg.label, 1, nullptr);
            const std::size_t lines = cache->setUsage().size();
            Counting<StatsObserver> obs(lines, false, ObserverConfig{true, 0});
            cache->setCacheObserver(&obs);
            drive(*cache, stream, batched);
            for (const SetUsage &u : obs.seen)
                ASSERT_EQ(u.accesses(), 0u);

            // Fed every line access, as before, the report is the same.
            auto fed = cfg.build(cfg.label, 1, nullptr);
            Counting<StatsObserver> all(lines, true, ObserverConfig{true, 0});
            fed->setCacheObserver(&all);
            drive(*fed, stream, batched);
            EXPECT_TRUE(all.seen == std::vector<SetUsage>(
                                        fed->setUsage().begin(),
                                        fed->setUsage().end()));
            expectReportsEqual(*harvestObserver(&obs, *cache),
                               *harvestObserver(&all, *fed));
            EXPECT_EQ(cache->stats().hits, fed->stats().hits);
            EXPECT_GT(cache->stats().hits, 0u);
        }
}

TEST(ObserverDelivery, ConsumersSeeEveryLineAccessExactlyOnce)
{
    const auto stream = deliveryStream();
    for (const CacheConfig &cfg : deliveryConfigs())
        for (const bool batched : {false, true}) {
            SCOPED_TRACE(cfg.label + (batched ? " batched" : " scalar"));
            auto cache = cfg.build(cfg.label, 1, nullptr);
            const std::size_t lines = cache->setUsage().size();
            Counting<StatsObserver> obs(lines, false,
                                        ObserverConfig{true, 256});
            cache->setCacheObserver(&obs);
            drive(*cache, stream, batched);
            const std::vector<SetUsage> usage(cache->setUsage().begin(),
                                              cache->setUsage().end());
            EXPECT_TRUE(obs.seen == usage);

            auto drowsy_cache = cfg.build(cfg.label, 1, nullptr);
            Counting<DrowsyEstimator> drowsy(lines, false, DrowsyParams{});
            drowsy_cache->setCacheObserver(&drowsy);
            drive(*drowsy_cache, stream, batched);
            EXPECT_TRUE(drowsy.seen == usage);
            EXPECT_EQ(drowsy.report().ticks, stream.size());
        }
}

/** In an invalidation-free model, evictions are installs minus one. */
TEST(StatsObserver, EvictionHistogramCountsInstallsAfterTheFirst)
{
    const CacheConfig cfg = parseCacheSpec("dm:16kB");
    auto cache = cfg.build(cfg.label, 1, nullptr);
    StatsObserver obs(cache->setUsage().size(), {true, 0});
    cache->setCacheObserver(&obs);

    // Two blocks mapping to the same direct-mapped frame, alternated:
    // every access misses and reinstalls the same line.
    for (int i = 0; i < 10; ++i) {
        const Addr a = i % 2 == 0 ? 0 : 16 * 1024;
        cache->access({a, AccessType::Read});
    }

    const ObserverReport rep = obs.report();
    std::uint64_t installs = 0, evictions = 0;
    for (std::size_t i = 0; i < rep.installs.size(); ++i) {
        installs += rep.installs[i];
        evictions += rep.evictions(i);
    }
    EXPECT_EQ(installs, 10u);
    EXPECT_EQ(evictions, 9u);
}

TEST(StatsObserver, IntervalSeriesTilesTheRunWithTrailingPartial)
{
    const auto stream = capturedStream(250);
    const CacheConfig cfg = parseCacheSpec("dm:16kB");
    auto cache = cfg.build(cfg.label, 1, nullptr);
    StatsObserver obs(cache->setUsage().size(), {true, 100});
    cache->setCacheObserver(&obs);
    for (const MemAccess &a : stream)
        cache->access(a);

    const ObserverReport rep = obs.report();
    ASSERT_EQ(rep.intervals.size(), 3u);
    EXPECT_EQ(rep.intervals[0].accesses, 100u);
    EXPECT_EQ(rep.intervals[1].accesses, 100u);
    EXPECT_EQ(rep.intervals[2].accesses, 50u); // trailing partial
    std::uint64_t misses = 0;
    for (const IntervalSample &s : rep.intervals)
        misses += s.misses;
    EXPECT_EQ(misses, cache->stats().misses);
    // report() is side-effect free: a second snapshot is identical.
    expectReportsEqual(rep, obs.report());
}

TEST(BalanceMetricsTest, UniformHistogramIsPerfectlyBalanced)
{
    std::vector<SetUsage> u(64);
    for (auto &s : u)
        s.hits = 37;
    const BalanceMetrics m =
        computeBalanceMetrics(std::span<const SetUsage>(u));
    EXPECT_EQ(m.maxRefs, 37u);
    EXPECT_DOUBLE_EQ(m.meanRefs, 37.0);
    EXPECT_DOUBLE_EQ(m.maxOverMean, 1.0);
    EXPECT_DOUBLE_EQ(m.cov, 0.0);
    EXPECT_NEAR(m.gini, 0.0, 1e-12);
}

TEST(BalanceMetricsTest, SingleHotSetIsMaximallyImbalanced)
{
    const std::size_t n = 16;
    std::vector<SetUsage> u(n);
    u[5].hits = 1000;
    const BalanceMetrics m =
        computeBalanceMetrics(std::span<const SetUsage>(u));
    EXPECT_EQ(m.maxRefs, 1000u);
    EXPECT_DOUBLE_EQ(m.maxOverMean, double(n));
    // All references in one of n sets: G = (n-1)/n.
    EXPECT_NEAR(m.gini, double(n - 1) / double(n), 1e-12);
}

TEST(StatsObserver, BCacheDecoderTelemetryIsConsistent)
{
    // A rich address mix over a small B-Cache: PD-miss installs land on
    // ways programmed with other patterns, so reprograms are plentiful
    // (a pure strided-conflict stream has a constant PD pattern and
    // never reprograms), and the runner's harvest snapshots occupancy.
    ObserverConfig oc;
    oc.enabled = true;
    const MissRateResult r =
        runMissRate("gcc", StreamSide::Data,
                    parseCacheSpec("bcache:4kB,mf=8,bas=8"), 20000,
                    kDefaultSeed, oc);
    ASSERT_TRUE(r.observer);
    const ObserverReport &rep = *r.observer;

    EXPECT_GT(rep.pdReprograms, 0u);
    std::uint64_t churn = 0;
    for (std::uint64_t g : rep.pdReprogramsPerGroup)
        churn += g;
    EXPECT_EQ(churn, rep.pdReprograms);
    // Occupancy: one snapshot per NPI group, each within the BAS bound.
    EXPECT_FALSE(rep.pdOccupancy.empty());
    for (std::uint32_t occ : rep.pdOccupancy)
        EXPECT_LE(occ, 8u);
    // Every reprogrammed group exists in the decoder.
    EXPECT_LE(rep.pdReprogramsPerGroup.size(), rep.pdOccupancy.size());
}

TEST(ObserverReportTest, MergeSumsCountersAndConcatenatesIntervals)
{
    ObserverReport a, b;
    a.perSet = {{8, 2}, {4, 0}};
    a.installs = {2, 1};
    a.writebacks = 3;
    a.pdReprograms = 1;
    a.pdReprogramsPerGroup = {1};
    a.pdOccupancy = {3, 1};
    a.intervalLen = 100;
    a.intervals = {{100, 5, 1, 0}, {20, 2, 0, 1}};

    b.perSet = {{0, 1}, {6, 1}};
    b.installs = {1, 2};
    b.writebacks = 2;
    b.pdReprograms = 4;
    b.pdReprogramsPerGroup = {0, 4};
    b.pdOccupancy = {2, 4};
    b.intervalLen = 100;
    b.intervals = {{60, 9, 2, 3}};

    ObserverReport m = a;
    m += b;
    ASSERT_EQ(m.perSet.size(), 2u);
    EXPECT_EQ(m.perSet[0].accesses(), 11u);
    EXPECT_EQ(m.perSet[0].hits, 8u);
    EXPECT_EQ(m.perSet[0].misses, 3u);
    EXPECT_EQ(m.perSet[1].accesses(), 11u);
    EXPECT_EQ(m.installs, (std::vector<std::uint64_t>{3, 3}));
    EXPECT_EQ(m.writebacks, 5u);
    EXPECT_EQ(m.pdReprograms, 5u);
    EXPECT_EQ(m.pdReprogramsPerGroup,
              (std::vector<std::uint64_t>{1, 4}));
    // Occupancy merges as element-wise max (end-state bound).
    EXPECT_EQ(m.pdOccupancy, (std::vector<std::uint32_t>{3, 4}));
    // Shard order preserved: a's windows then b's.
    ASSERT_EQ(m.intervals.size(), 3u);
    EXPECT_EQ(m.intervals[0].accesses, 100u);
    EXPECT_EQ(m.intervals[1].accesses, 20u);
    EXPECT_EQ(m.intervals[2].accesses, 60u);
}

TEST(ObserverExport, JsonIsWellFormedAndCsvRowsMatchTheHistogram)
{
    ObserverReport rep;
    rep.perSet = {{8, 2}, {4, 0}};
    rep.installs = {2, 1};
    rep.writebacks = 1;
    rep.intervalLen = 100;
    rep.intervals = {{100, 5, 1, 0}};
    rep.pdReprograms = 2;
    rep.pdReprogramsPerGroup = {2};
    rep.pdOccupancy = {2};

    JsonWriter j;
    writeJson(j, rep);
    std::string err;
    const auto doc = parseJson(j.str(), &err);
    ASSERT_TRUE(doc) << err;
    const JsonValue *per = doc->find("perSet");
    ASSERT_TRUE(per);
    EXPECT_EQ(per->find("lines")->number, 2.0);
    EXPECT_EQ(per->find("accesses")->array.size(), 2u);
    ASSERT_TRUE(doc->find("balanceMetrics"));
    ASSERT_TRUE(doc->find("intervals"));
    EXPECT_EQ(doc->find("intervals")->find("samples")->array.size(),
              1u);
    ASSERT_TRUE(doc->find("pd"));

    // CSVs: one header row plus one row per line / window.
    const auto lines = [](const std::string &s) {
        return std::count(s.begin(), s.end(), '\n');
    };
    EXPECT_EQ(lines(heatmapCsv(rep)), 3);
    EXPECT_EQ(lines(intervalCsv(rep)), 2);
    EXPECT_NE(heatmapCsv(rep).find("set,accesses,hits,misses,installs,"
                                   "evictions"),
              std::string::npos);
    // Byte-exact rows, including a field past 32 bits.
    rep.perSet[1].misses = 5000000000ull;
    EXPECT_EQ(heatmapCsv(rep),
              "set,accesses,hits,misses,installs,evictions\n"
              "0,10,8,2,2,1\n"
              "1,5000000004,4,5000000000,1,0\n");
    EXPECT_EQ(intervalCsv(rep),
              "interval,accesses,misses,writebacks,pd_reprograms\n"
              "0,100,5,1,0\n");
}

/** runMissRate end to end: observer off by default, on when asked. */
TEST(RunnerObserve, ObserverIsOptInAndCarriesTheRunsCounters)
{
    const MissRateResult plain =
        runMissRate("gcc", StreamSide::Data,
                    parseCacheSpec("dm:16kB"), 20000);
    EXPECT_FALSE(plain.observer);

    ObserverConfig oc;
    oc.enabled = true;
    oc.intervalLen = 4096;
    const MissRateResult observed =
        runMissRate("gcc", StreamSide::Data,
                    parseCacheSpec("dm:16kB"), 20000,
                    kDefaultSeed, oc);
    ASSERT_TRUE(observed.observer);
    // Identical run modulo observation: observation is passive.
    EXPECT_EQ(observed.stats.accesses, plain.stats.accesses);
    EXPECT_EQ(observed.stats.misses, plain.stats.misses);
    std::uint64_t acc = 0;
    for (const SetUsage &u : observed.observer->perSet)
        acc += u.accesses();
    EXPECT_EQ(acc, observed.stats.accesses);
    EXPECT_EQ(observed.observer->balanceMetrics().maxRefs > 0, true);
    EXPECT_FALSE(observed.observer->intervals.empty());
}

} // namespace
} // namespace bsim
