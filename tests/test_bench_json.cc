/**
 * @file
 * The perf-telemetry pipeline, unit-tested: the strict JSON parser in
 * src/common/json (round-trips, error reporting), the BENCH_perf.json
 * appender (atomic replace, integer-lexeme preservation across
 * re-serialization, quarantine of malformed logs instead of clobbering),
 * and the schema validator behind scripts/check_bench_json.sh.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_json.hh"
#include "common/json.hh"
#include "sim/sweep.hh"

using namespace bsim;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + name;
}

TEST(JsonParser, ScalarsAndContainers)
{
    std::string err;
    auto v = parseJson(R"({"a": [1, -2.5, 1e3], "b": {"c": null},
                           "t": true, "f": false, "s": "x"})",
                       &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());
    const JsonValue *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(a->array[1].number, -2.5);
    EXPECT_DOUBLE_EQ(a->array[2].number, 1000.0);
    EXPECT_TRUE(v->find("b")->find("c")->isNull());
    EXPECT_TRUE(v->find("t")->boolean);
    EXPECT_FALSE(v->find("f")->boolean);
    EXPECT_EQ(v->find("s")->string, "x");
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParser, StringEscapes)
{
    auto v = parseJson(R"(["a\"b\\c\/d\n\t", "\u0041\u00e9\u20ac",
                           "\ud83d\ude00"])");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->array[0].string, "a\"b\\c/d\n\t");
    EXPECT_EQ(v->array[1].string, "A\xc3\xa9\xe2\x82\xac");
    EXPECT_EQ(v->array[2].string, "\xf0\x9f\x98\x80"); // surrogate pair
}

TEST(JsonParser, RejectsMalformed)
{
    const char *bad[] = {
        "",        "{",       "[1,]",      "{\"a\":}",   "[01]",
        "[1.]",    "[.5]",    "[1e]",      "nulll",      "[] []",
        "\"\\q\"", "[\"\\ud83d\"]", "{\"a\" 1}", "{1: 2}",
    };
    for (const char *t : bad) {
        std::string err;
        EXPECT_FALSE(parseJson(t, &err).has_value()) << t;
        EXPECT_FALSE(err.empty()) << t;
        EXPECT_NE(err.find("offset"), std::string::npos) << err;
    }
}

TEST(JsonParser, RoundTripPreservesIntegerLexemes)
{
    // 2^53+1 is not representable as a double; the dump must re-emit
    // the source lexeme, not a double-rounded value.
    const std::string doc =
        R"([{"big":9007199254740993,"neg":-42,"f":1.5}])";
    auto v = parseJson(doc);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->dump(), doc);
}

TEST(JsonParser, DepthCap)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    std::string err;
    EXPECT_FALSE(parseJson(deep, &err).has_value());
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(BenchJson, AppendCreatesAndExtends)
{
    const std::string path = tmpPath("bench_append.json");
    std::remove(path.c_str());

    bench::PerfRecord r;
    r.bench = "unit";
    r.config = "cfg-a";
    r.accessesPerSec = 1.25e6;
    r.wallSeconds = 0.5;
    r.jobs = 4;
    r.gitRev = "fixedrev";
    ASSERT_EQ(bench::appendPerfRecord(r, path), "");

    r.config = "cfg-b";
    ASSERT_EQ(bench::appendPerfRecord(r, path), "");

    const std::string text = slurp(path);
    std::string err;
    const auto count = bench::validatePerfJson(text, &err);
    ASSERT_TRUE(count.has_value()) << err;
    EXPECT_EQ(*count, 2u);

    auto doc = parseJson(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->array[0].find("config")->string, "cfg-a");
    EXPECT_EQ(doc->array[1].find("config")->string, "cfg-b");
    EXPECT_EQ(doc->array[0].find("git_rev")->string, "fixedrev");
    EXPECT_EQ(doc->array[0].find("jobs")->string, "4"); // integer lexeme

    // No stale temp file once the rename landed.
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(BenchJson, QuarantinesMalformedInsteadOfClobbering)
{
    const std::string path = tmpPath("bench_corrupt.json");
    const std::string quarantined = path + ".corrupt";
    std::remove(path.c_str());
    std::remove(quarantined.c_str());
    {
        std::ofstream out(path);
        out << "{ not json at all";
    }

    bench::PerfRecord r;
    r.bench = "unit";
    r.config = "after-corruption";
    r.gitRev = "rev";
    ASSERT_EQ(bench::appendPerfRecord(r, path), "");

    // The old bytes moved aside verbatim; the new log starts fresh.
    EXPECT_EQ(slurp(quarantined), "{ not json at all");
    const auto count = bench::validatePerfJson(slurp(path), nullptr);
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(*count, 1u);
    std::remove(path.c_str());
    std::remove(quarantined.c_str());
}

TEST(BenchJson, ValidatorRejectsSchemaDrift)
{
    // Wrong-type and missing-key records must fail even though they are
    // valid JSON (the lint's selftest covers more shapes).
    std::string err;
    EXPECT_FALSE(bench::validatePerfJson("{}", &err).has_value());
    EXPECT_FALSE(
        bench::validatePerfJson(
            R"([{"bench":1,"config":"c","accesses_per_sec":1,)"
            R"("wall_s":1,"jobs":1,"git_rev":"r"}])",
            &err)
            .has_value());
    EXPECT_TRUE(bench::validatePerfJson("[]", &err).has_value());
}

TEST(BenchJson, PathAndRevEnvOverrides)
{
    // The revision always has a fallback ("unknown" outside a checkout).
    EXPECT_FALSE(bench::currentGitRev().empty());
}

TEST(BenchJson, NoSinkWritesNothing)
{
    // With BSIM_BENCH_JSON unset a run records nothing: no BENCH_perf.json
    // (nor its temp file) appears in the working directory.
    const char *prev = std::getenv("BSIM_BENCH_JSON");
    const std::string saved = prev ? prev : "";
    ::unsetenv("BSIM_BENCH_JSON");
    std::string dir = testing::TempDir() + "bench_json_nosinkXXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir);

    EXPECT_EQ(bench::benchJsonPath(), "");
    SweepSummary summary;
    summary.jobs = 1;
    summary.threads = 1;
    summary.events = 1000;
    summary.wallSeconds = 0.5;
    bench::reportSweepPerf("unit", "no-sink", summary);
    EXPECT_EQ(bench::appendPerfRecord(bench::PerfRecord{}), "");

    std::filesystem::current_path(cwd);
    if (prev)
        ::setenv("BSIM_BENCH_JSON", saved.c_str(), 1);
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << dir;
    std::filesystem::remove_all(dir);
}

} // namespace
