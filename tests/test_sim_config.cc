/** Unit tests for the named configuration layer. */

#include <gtest/gtest.h>

#include "alt/column_assoc_cache.hh"
#include "alt/hac_cache.hh"
#include "alt/skewed_assoc_cache.hh"
#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/victim_cache.hh"
#include "mem/main_memory.hh"
#include "sim/config.hh"

namespace bsim {
namespace {

TEST(Config, BuildsMatchingTypes)
{
    EXPECT_NE(dynamic_cast<SetAssocCache *>(
                  parseCacheSpec("sa:16kB,4w").build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<VictimCache *>(
                  parseCacheSpec("victim:16kB,16e").build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<BCache *>(
                  parseCacheSpec("bcache:16kB,mf=8,bas=8").build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<ColumnAssocCache *>(
                  parseCacheSpec("column:16kB").build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<SkewedAssocCache *>(
                  parseCacheSpec("skew:16kB").build("x").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<HacCache *>(
                  parseCacheSpec("hac:16kB").build("x").get()),
              nullptr);
}

TEST(Config, LabelsAreDescriptive)
{
    EXPECT_EQ(parseCacheSpec("sa:16kB,8w").label, "8way");
    EXPECT_EQ(parseCacheSpec("victim:16kB,16e").label, "victim16");
    EXPECT_EQ(parseCacheSpec("bcache:16kB,mf=8,bas=8").label, "MF8-BAS8");
    EXPECT_EQ(parseCacheSpec("dm:16kB").label, "16kB-dm");
}

TEST(Config, BCacheParamsPropagate)
{
    const CacheConfig c =
        parseCacheSpec("bcache:32kB,mf=16,bas=4,repl=random");
    const BCacheParams p = c.bcacheParams();
    EXPECT_EQ(p.sizeBytes, 32u * 1024);
    EXPECT_EQ(p.mf, 16u);
    EXPECT_EQ(p.bas, 4u);
    EXPECT_EQ(p.repl, ReplPolicyKind::Random);
}

TEST(Config, Figure4SetHasNineConfigs)
{
    const auto v = figure4Configs(16 * 1024);
    ASSERT_EQ(v.size(), 9u);
    EXPECT_EQ(v[0].label, "2way");
    EXPECT_EQ(v[3].label, "32way");
    EXPECT_EQ(v[4].label, "victim16");
    EXPECT_EQ(v[5].label, "MF2-BAS8");
    EXPECT_EQ(v[8].label, "MF16-BAS8");
}

TEST(Config, Figure12SetHasTwelveConfigs)
{
    const auto v = figure12Configs(8 * 1024);
    const std::vector<std::string> labels = {
        "2way",     "4way",     "8way",     "victim16",
        "MF2-BAS4", "MF4-BAS4", "MF8-BAS4", "MF16-BAS4",
        "MF2-BAS8", "MF4-BAS8", "MF8-BAS8", "MF16-BAS8"};
    ASSERT_EQ(v.size(), labels.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(v[i].label, labels[i]) << i;
        EXPECT_EQ(v[i].sizeBytes, 8u * 1024);
    }
}

TEST(Config, BuiltCachesUseRequestedGeometry)
{
    auto c = parseCacheSpec("sa:32kB,4w").build("x");
    EXPECT_EQ(c->geometry().sizeBytes(), 32u * 1024);
    EXPECT_EQ(c->geometry().ways(), 4u);
}

TEST(Config, BuildWiresNextLevel)
{
    MainMemory mem(50);
    auto c = parseCacheSpec("dm:1kB").build("x", 1, &mem);
    EXPECT_EQ(c->access({0, AccessType::Read}).latency, 51u);
}

} // namespace
} // namespace bsim
