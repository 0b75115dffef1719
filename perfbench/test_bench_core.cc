/**
 * @file
 * Unit tests of the benchmark's own logic (bench_core.hh): tail
 * percentile choice, failure and digest-mismatch accounting, and the
 * metric names BENCHMARK.json declares.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "bench_core.hh"
#include "common/json.hh"
#include "common/logging.hh"

using namespace perfbench;

namespace {

std::string
readSource(const std::string &rel)
{
    std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/" + rel);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Percentile, InterpolatesBetweenRanks)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 90), 0.0);
    EXPECT_DOUBLE_EQ(median({5, 1, 9}), 5.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(highestTailPercentile(0), 0.0);
    EXPECT_EQ(highestTailPercentile(19), 0.0);
    EXPECT_EQ(highestTailPercentile(20), 50.0);
    EXPECT_EQ(highestTailPercentile(99), 50.0);
    EXPECT_EQ(highestTailPercentile(100), 90.0);
    EXPECT_EQ(highestTailPercentile(999), 90.0);
    EXPECT_EQ(highestTailPercentile(1000), 99.0);
    EXPECT_EQ(highestTailPercentile(9999), 99.0);
    EXPECT_EQ(highestTailPercentile(10000), 99.9);
    EXPECT_EQ(highestTailPercentile(100, 11), 50.0);
}

TEST(TailPercentile, AgreesWithTheSampleItself)
{
    // With n samples 1..n, count those strictly above the chosen
    // percentile: at least ten, and the next candidate would have fewer.
    for (const std::size_t n : {20u, 100u, 150u, 1000u, 2600u}) {
        std::vector<double> v;
        for (std::size_t i = 1; i <= n; ++i)
            v.push_back(double(i));
        const double p = highestTailPercentile(n);
        const double cut = percentile(v, p);
        std::size_t beyond = 0;
        for (const double x : v)
            beyond += x > cut;
        EXPECT_GE(beyond, 10u) << "n=" << n << " p" << p;
    }
}

TEST(ErrorTally, ThrowingCustomJobCountsAsFailed)
{
    std::vector<bsim::SweepJob> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back(bsim::SweepJob::customJob(
            "ok", [](std::uint64_t) { return std::uint64_t{10}; }));
    jobs.push_back(bsim::SweepJob::customJob(
        "throws", [](std::uint64_t) -> std::uint64_t {
            throw std::runtime_error("injected");
        }));
    bsim::SweepOptions opts;
    opts.jobs = 2;
    const bsim::SweepRun run = bsim::runSweep(jobs, opts);

    std::vector<std::optional<std::uint64_t>> digests;
    for (const auto &o : run.outcomes)
        digests.push_back(o.ok() ? std::optional<std::uint64_t>(1)
                                 : std::nullopt);
    ErrorTally tally;
    const std::vector<std::uint64_t> want(4, 1);
    EXPECT_TRUE(accountRound(tally, run.outcomes, digests, &want).empty());
    EXPECT_EQ(tally.attempted, 4u);
    EXPECT_EQ(tally.failed, 1u);
    EXPECT_EQ(tally.mismatched, 0u); // a failed job is not also a mismatch
    EXPECT_DOUBLE_EQ(tally.errorRate(), 0.25);

    // A second, clean round halves the rate.
    bsim::SweepRun clean = run;
    clean.outcomes.back().error.clear();
    digests.back() = 1;
    accountRound(tally, clean.outcomes, digests, &want);
    EXPECT_DOUBLE_EQ(tally.errorRate(), 1.0 / 8.0);
}

TEST(ErrorTally, FatalInsideAJobIsCapturedWhenFatalsThrow)
{
    bsim::setFatalThrows(true);
    std::vector<bsim::SweepJob> jobs = {bsim::SweepJob::customJob(
        "fatal", [](std::uint64_t) -> std::uint64_t {
            bsim_fatal("injected fatal");
        })};
    const bsim::SweepRun run = bsim::runSweep(jobs);
    bsim::setFatalThrows(false);
    ErrorTally tally;
    accountRound(tally, run.outcomes, {std::nullopt}, nullptr);
    EXPECT_EQ(tally.failed, 1u);
    EXPECT_DOUBLE_EQ(tally.errorRate(), 1.0);
}

TEST(Digest, DetectsAChangedCounter)
{
    bsim::MissRateResult a;
    a.stats.accesses = 1000;
    a.stats.misses = 10;
    a.stats.hits = 990;
    bsim::MissRateResult b = a;
    EXPECT_EQ(digestMissRate(a), digestMissRate(b));
    b.stats.writebacks = 1;
    EXPECT_NE(digestMissRate(a), digestMissRate(b));
    b = a;
    b.victimHits = 1;
    EXPECT_NE(digestMissRate(a), digestMissRate(b));
    b = a;
    b.pd = bsim::PdStats{};
    EXPECT_NE(digestMissRate(a), digestMissRate(b));

    bsim::TimedResult t;
    t.cpu.uops = 100;
    bsim::TimedResult u = t;
    u.l2.misses = 1;
    EXPECT_NE(digestTimed(t), digestTimed(u));
    u = t;
    u.cpu.loadMissCycles = 1;
    EXPECT_NE(digestTimed(t), digestTimed(u));

    EXPECT_NE(digestBytes("{\"a\":1}"), digestBytes("{\"a\":2}"));
    EXPECT_NE(digestBytes("ab"), digestBytes("ba"));
}

TEST(Digest, MismatchIsCountedAndLocated)
{
    std::vector<bsim::SweepOutcome> outcomes(3);
    const std::vector<std::uint64_t> want = {11, 22, 33};
    ErrorTally tally;
    const auto bad =
        accountRound(tally, outcomes, {11, 99, std::nullopt}, &want);
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], 1u);
    EXPECT_EQ(tally.attempted, 3u);
    EXPECT_EQ(tally.mismatched, 1u);
    EXPECT_DOUBLE_EQ(tally.errorRate(), 1.0 / 3.0);

    // A digest with no expectation left over is a mismatch too.
    ErrorTally longer;
    EXPECT_EQ(accountRound(longer, outcomes, {11, 22, 33, 44}, &want),
              std::vector<std::size_t>{3});
}

TEST(Pinned, ParsesAndRejects)
{
    const auto ok = parsePinned("# comment\n\n"
                                "w 0 00000000000000ff\n"
                                "w 1 0123456789abcdef\n"
                                "v 0 ffffffffffffffff\n");
    ASSERT_TRUE(ok);
    EXPECT_EQ(ok->at("w"), (std::vector<std::uint64_t>{
                               0xff, 0x0123456789abcdefULL}));
    EXPECT_EQ(ok->at("v").size(), 1u);

    std::string err;
    EXPECT_FALSE(parsePinned("w 1 00000000000000ff\n", &err));
    EXPECT_NE(err.find("indices"), std::string::npos);
    EXPECT_FALSE(parsePinned("w 0 ff\n", &err));
    EXPECT_FALSE(parsePinned("w 0 00000000000000FF\n", &err));
    EXPECT_FALSE(parsePinned("w 0 00000000000000ff extra\n", &err));
    EXPECT_FALSE(parsePinned("w x 00000000000000ff\n", &err));
}

TEST(Pinned, ShippedFileCoversEveryJob)
{
    const auto pinned = parsePinned(readSource("pinned_digests.txt"));
    ASSERT_TRUE(pinned);
    EXPECT_EQ(pinned->at("dcache_grid").size(), 260u);  // 26 x 10
    EXPECT_EQ(pinned->at("trace_observed").size(), 8u); // documents
    EXPECT_EQ(pinned->at("timed_ipc").size(), 156u);    // 26 x 6
}

TEST(Metrics, NamesAndUnitsAreValidAndUnique)
{
    std::set<std::string> seen;
    for (const MetricDef &d : metricTable()) {
        EXPECT_TRUE(validMetricName(d.name)) << d.name;
        EXPECT_TRUE(validMetricUnit(d.unit)) << d.name << " " << d.unit;
        EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_lead"));
    EXPECT_FALSE(validMetricName(".lead"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validMetricName("9lives.ok-too_x"));
    EXPECT_FALSE(validMetricUnit(""));
    EXPECT_FALSE(validMetricUnit("seconds per run"));
    EXPECT_FALSE(validMetricUnit(std::string(17, 's')));
    EXPECT_TRUE(validMetricUnit("1/s"));
    EXPECT_TRUE(validMetricUnit("%"));
}

TEST(Metrics, BenchmarkJsonListsExactlyTheTable)
{
    const auto doc = bsim::parseJson(readSource("../BENCHMARK.json"));
    ASSERT_TRUE(doc && doc->isObject());
    std::set<std::pair<std::string, std::string>> e2e, layer;
    for (const MetricDef &d : metricTable())
        (d.endToEnd ? e2e : layer).emplace(d.name, d.unit);
    auto listed = [&](const char *key) {
        std::set<std::pair<std::string, std::string>> out;
        const bsim::JsonValue *arr = doc->find(key);
        if (!arr || !arr->isArray())
            return out;
        for (const bsim::JsonValue &m : arr->array)
            out.emplace(m.find("name")->string, m.find("unit")->string);
        return out;
    };
    EXPECT_EQ(listed("end_to_end"), e2e);
    EXPECT_EQ(listed("per_layer"), layer);
    const bsim::JsonValue *setup = nullptr;
    for (const bsim::JsonValue &m : doc->find("end_to_end")->array)
        if (m.find("name")->string == "setup_s")
            setup = &m;
    ASSERT_NE(setup, nullptr);
    EXPECT_EQ(setup->find("better")->string, "lower");
}

TEST(Spans, SelfTimeExcludesChildren)
{
    std::vector<SpanLog> logs(1);
    {
        const auto parent = logs[0].open("job");
        const auto child = logs[0].open("work", parent);
        volatile double x = 0;
        for (int i = 0; i < 100000; ++i)
            x = x + 1;
        logs[0].close(child);
        logs[0].close(parent);
    }
    const auto totals = totalsByName(logs);
    ASSERT_EQ(totals.count("job"), 1u);
    const SpanTotals &job = totals.at("job");
    const SpanTotals &work = totals.at("work");
    EXPECT_EQ(job.count, 1u);
    EXPECT_GE(job.seconds, work.seconds);
    EXPECT_NEAR(job.selfSeconds, job.seconds - work.seconds, 1e-12);
    EXPECT_DOUBLE_EQ(work.selfSeconds, work.seconds);
    const std::string csv = spansCsv(logs, logs[0].spans()[0].start);
    EXPECT_NE(csv.find("0,1,0,work,"), std::string::npos) << csv;
}
