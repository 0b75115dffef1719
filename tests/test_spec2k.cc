/** Unit tests for the SPEC2K-substitute workload registry. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cache/set_assoc_cache.hh"
#include "workload/spec2k.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

TEST(Spec2k, SuiteHas26Benchmarks)
{
    EXPECT_EQ(spec2kNames().size(), 26u);
    EXPECT_EQ(spec2kIntNames().size(), 12u);
    EXPECT_EQ(spec2kFpNames().size(), 14u);
}

TEST(Spec2k, IntPlusFpIsAll)
{
    std::set<std::string> all(spec2kNames().begin(),
                              spec2kNames().end());
    std::set<std::string> parts;
    for (const auto &n : spec2kIntNames())
        parts.insert(n);
    for (const auto &n : spec2kFpNames())
        parts.insert(n);
    EXPECT_EQ(all, parts);
}

TEST(Spec2k, IcacheReportedListMatchesPaper)
{
    // Section 4.2 lists the benchmarks *excluded* from Figure 5; the
    // remaining fifteen are reported.
    const auto &rep = spec2kIcacheReportedNames();
    EXPECT_EQ(rep.size(), 15u);
    const std::set<std::string> repset(rep.begin(), rep.end());
    for (const char *n : {"crafty", "eon", "gcc", "equake", "wupwise",
                          "perlbmk", "votex", "twolf"})
        EXPECT_TRUE(repset.count(n)) << n;
    for (const char *n : {"art", "swim", "mcf", "gzip", "lucas", "vpr",
                          "applu", "bzip2", "facerec", "galgel",
                          "mgrid"})
        EXPECT_FALSE(repset.count(n)) << n;
}

TEST(Spec2k, NamesAreRecognized)
{
    for (const auto &n : spec2kNames())
        EXPECT_TRUE(isSpec2kName(n));
    EXPECT_FALSE(isSpec2kName("quake3"));
}

TEST(Spec2k, UnknownNameIsFatal)
{
    EXPECT_FATAL(makeSpecWorkload("quake3"), "unknown SPEC2K workload");
}

TEST(Spec2k, WorkloadsAreDeterministic)
{
    for (const char *name : {"gcc", "equake", "mcf"}) {
        SpecWorkload a = makeSpecWorkload(name, 123);
        SpecWorkload b = makeSpecWorkload(name, 123);
        for (int i = 0; i < 2000; ++i) {
            const MemAccess x = a.data->next();
            const MemAccess y = b.data->next();
            EXPECT_EQ(x.addr, y.addr);
            EXPECT_EQ(x.type, y.type);
            EXPECT_EQ(a.inst->next().addr, b.inst->next().addr);
        }
    }
}

TEST(Spec2k, DifferentSeedsChangeDataStream)
{
    SpecWorkload a = makeSpecWorkload("gcc", 1);
    SpecWorkload b = makeSpecWorkload("gcc", 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.data->next().addr == b.data->next().addr);
    EXPECT_LT(same, 500);
}

TEST(Spec2k, InstStreamsAreFetches)
{
    SpecWorkload w = makeSpecWorkload("crafty");
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(w.inst->next().type, AccessType::Fetch);
}

TEST(Spec2k, DataStreamsContainWrites)
{
    SpecWorkload w = makeSpecWorkload("swim");
    int writes = 0;
    for (int i = 0; i < 5000; ++i)
        writes += (w.data->next().type == AccessType::Write);
    EXPECT_GT(writes, 500);
}

TEST(Spec2k, BenchmarksUseDisjointDataSegments)
{
    // Each benchmark owns a 32 MB slot (sanity for the multi-workload
    // examples): observed data addresses of adjacent benchmarks differ.
    SpecWorkload a = makeSpecWorkload("bzip2");
    SpecWorkload b = makeSpecWorkload("crafty");
    std::set<Addr> sa, sb;
    for (int i = 0; i < 2000; ++i) {
        const Addr x = a.data->next().addr;
        const Addr y = b.data->next().addr;
        if (x < 0x7000'0000ull) // exclude the shared stack region
            sa.insert(x >> 25);
        if (y < 0x7000'0000ull)
            sb.insert(y >> 25);
    }
    for (Addr slot : sa)
        EXPECT_FALSE(sb.count(slot));
}

TEST(Spec2k, CpuProfilesDifferByClass)
{
    const SpecWorkload fp = makeSpecWorkload("swim");
    const SpecWorkload in = makeSpecWorkload("gcc");
    EXPECT_TRUE(fp.floatingPoint);
    EXPECT_FALSE(in.floatingPoint);
    EXPECT_GT(fp.cpu.longLatFrac, in.cpu.longLatFrac);
    EXPECT_GT(in.cpu.branchFrac, fp.cpu.branchFrac);
}

TEST(Spec2k, StreamingClassHasHighDmMissRate)
{
    // art/swim-style workloads are capacity bound: their direct-mapped
    // miss rate is substantial.
    SpecWorkload w = makeSpecWorkload("swim");
    SetAssocCache dm("dm", CacheGeometry(16 * 1024, 32, 1), 1, nullptr);
    for (int i = 0; i < 200000; ++i)
        dm.access(w.data->next());
    EXPECT_GT(dm.stats().missRate(), 0.05);
}

TEST(Spec2k, TinyCodeBenchmarksBarelyMissIcache)
{
    SpecWorkload w = makeSpecWorkload("gzip");
    SetAssocCache ic("i", CacheGeometry(16 * 1024, 32, 1), 1, nullptr);
    for (int i = 0; i < 300000; ++i)
        ic.access(w.inst->next());
    EXPECT_LT(ic.stats().missRate(), 0.001);
}

TEST(Spec2k, ReportedCodeBenchmarksMissIcache)
{
    SpecWorkload w = makeSpecWorkload("gcc");
    SetAssocCache ic("i", CacheGeometry(16 * 1024, 32, 1), 1, nullptr);
    for (int i = 0; i < 300000; ++i)
        ic.access(w.inst->next());
    EXPECT_GT(ic.stats().missRate(), 0.002);
}

} // namespace
} // namespace bsim
