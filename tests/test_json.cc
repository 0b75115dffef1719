/** Unit tests for the JSON writer and the structured result reports. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hh"
#include "sim/report.hh"

namespace bsim {
namespace {

TEST(Json, EmptyObject)
{
    JsonWriter j;
    j.beginObject().endObject();
    EXPECT_EQ(j.str(), "{}");
    EXPECT_TRUE(j.complete());
}

TEST(Json, ScalarKinds)
{
    JsonWriter j;
    j.beginObject();
    j.kv("s", "text");
    j.kv("d", 1.5);
    j.kv("u", std::uint64_t{42});
    j.kv("i", -7);
    j.kv("b", true);
    j.key("n").null();
    j.endObject();
    EXPECT_EQ(j.str(), "{\"s\":\"text\",\"d\":1.5,\"u\":42,\"i\":-7,"
                       "\"b\":true,\"n\":null}");
}

TEST(Json, NestedContainers)
{
    JsonWriter j;
    j.beginObject();
    j.key("arr").beginArray();
    j.value(1).value(2);
    j.beginObject().kv("x", 3).endObject();
    j.endArray();
    j.endObject();
    EXPECT_EQ(j.str(), "{\"arr\":[1,2,{\"x\":3}]}");
}

TEST(Json, Escaping)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01")), "\\u0001");
}

TEST(Json, NonFiniteBecomesNull)
{
    JsonWriter j;
    j.beginArray();
    j.value(std::numeric_limits<double>::infinity());
    j.value(std::nan(""));
    j.endArray();
    EXPECT_EQ(j.str(), "[null,null]");
}

TEST(JsonDeathTest, MisuseCaught)
{
    JsonWriter a;
    a.beginObject();
    EXPECT_DEATH(a.endArray(), "endArray outside");
    JsonWriter b;
    b.beginArray();
    EXPECT_DEATH(b.key("k"), "key outside an object");
    JsonWriter c;
    c.beginObject();
    EXPECT_DEATH((void)c.str(), "unclosed");
}

TEST(Report, MissRateResultRoundTripsFields)
{
    const MissRateResult r = runMissRate(
        "equake", StreamSide::Data,
        CacheConfig::bcache(16 * 1024, 8, 8), 20000);
    const std::string s = toStatsJson(r, "workload");
    EXPECT_NE(s.find("\"schema\":\"bsim-stats-v1\""), std::string::npos);
    EXPECT_NE(s.find("\"workload\":\"equake\""), std::string::npos);
    EXPECT_NE(s.find("\"config\":\"MF8-BAS8\""), std::string::npos);
    EXPECT_NE(s.find("\"pd\":{"), std::string::npos);
    EXPECT_NE(s.find("\"balance\":{"), std::string::npos);
    EXPECT_NE(s.find("\"accesses\":20000"), std::string::npos);
}

TEST(Report, TimedResultSerializes)
{
    const TimedResult r =
        runTimed("vpr", CacheConfig::directMapped(16 * 1024), 30000);
    const std::string s = toJson(r);
    EXPECT_NE(s.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(s.find("\"l1i\":{"), std::string::npos);
    EXPECT_NE(s.find("\"l2\":{"), std::string::npos);
    EXPECT_NE(s.find("\"uops\":30000"), std::string::npos);
}

TEST(Report, NonBCacheHasNoPdSection)
{
    const MissRateResult r = runMissRate(
        "vpr", StreamSide::Data, CacheConfig::directMapped(16 * 1024),
        10000);
    EXPECT_EQ(toStatsJson(r, "workload").find("\"pd\":"),
              std::string::npos);
}

} // namespace
} // namespace bsim
