/** Differential tests: the production cache models versus a simple,
 *  obviously-correct reference simulator (std::list LRU with dirty
 *  tracking). Any divergence in per-access hit/miss decisions or in
 *  total writeback counts is a bug in one of them. */

#include <gtest/gtest.h>

#include <list>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bcache/bcache.hh"
#include "cache/hierarchy.hh"
#include "cache/set_assoc_cache.hh"
#include "common/random.hh"
#include "mem/main_memory.hh"
#include "sim/config.hh"
#include "workload/generators.hh"
#include "workload/spec2k.hh"

namespace bsim {
namespace {

/** Minimal reference LRU set-associative cache. */
class RefCache
{
  public:
    RefCache(const CacheGeometry &geom) : geom_(geom), sets_(geom.numSets())
    {
    }

    /** Returns hit; counts writebacks of dirty victims. */
    bool
    access(const MemAccess &req)
    {
        auto &set = sets_[geom_.index(req.addr)];
        const Addr tag = geom_.tag(req.addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == tag) {
                // Move to MRU position.
                Entry e = *it;
                e.dirty |= req.type == AccessType::Write;
                set.erase(it);
                set.push_front(e);
                return true;
            }
        }
        if (set.size() == geom_.ways()) {
            if (set.back().dirty)
                ++writebacks_;
            set.pop_back();
        }
        set.push_front({tag, req.type == AccessType::Write});
        return false;
    }

    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Entry
    {
        Addr tag;
        bool dirty;
    };
    CacheGeometry geom_;
    std::vector<std::list<Entry>> sets_;
    std::uint64_t writebacks_ = 0;
};

std::vector<MemAccess>
randomTraffic(std::size_t n, unsigned bits, double write_frac,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<MemAccess> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back({rng.next() & mask(bits),
                     rng.nextBool(write_frac) ? AccessType::Write
                                              : AccessType::Read});
    return v;
}

struct OracleCase
{
    std::uint64_t size;
    std::uint32_t ways;
    unsigned addrBits;
};
// gtest names each instance by the bytes of its parameter: no padding, so
// the test IDs are the same in every build.
static_assert(std::has_unique_object_representations_v<OracleCase>);

class OracleDifferential : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(OracleDifferential, SetAssocMatchesReferenceExactly)
{
    const auto c = GetParam();
    const CacheGeometry g(c.size, 32, c.ways);
    MainMemory mem(1);
    SetAssocCache dut("dut", g, 1, &mem);
    RefCache ref(g);

    for (const auto &a : randomTraffic(40000, c.addrBits, 0.3, c.size))
        ASSERT_EQ(dut.access(a).hit, ref.access(a));
    EXPECT_EQ(dut.stats().writebacks, ref.writebacks());
    EXPECT_EQ(mem.writebacks(), ref.writebacks());
}

TEST_P(OracleDifferential, SetAssocMatchesOnRealWorkload)
{
    const auto c = GetParam();
    const CacheGeometry g(c.size, 32, c.ways);
    SetAssocCache dut("dut", g, 1, nullptr);
    RefCache ref(g);
    SpecWorkload w = makeSpecWorkload("gcc");
    for (int i = 0; i < 40000; ++i) {
        const MemAccess a = w.data->next();
        ASSERT_EQ(dut.access(a).hit, ref.access(a));
    }
    EXPECT_EQ(dut.stats().writebacks, ref.writebacks());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OracleDifferential,
    ::testing::Values(OracleCase{1024, 1, 14},
                      OracleCase{1024, 2, 15},
                      OracleCase{4096, 4, 16},
                      OracleCase{16 * 1024, 8, 18},
                      OracleCase{16 * 1024, 1, 17}));

TEST(OracleBCache, FullPiBCacheMatchesReferenceSetAssoc)
{
    // With PI covering the whole upper address, the B-Cache must agree
    // with the reference LRU cache of 2^NPI sets x BAS ways, including
    // dirty-writeback accounting.
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.bas = 4;
    p.mf = 256; // PI = 10 bits, covers 18-bit addresses
    MainMemory mem(1);
    BCache dut("bc", p, 1, &mem);
    RefCache ref(CacheGeometry(1024, 32, 4));

    for (const auto &a : randomTraffic(40000, 18, 0.3, 99))
        ASSERT_EQ(dut.access(a).hit, ref.access(a));
    EXPECT_EQ(dut.stats().writebacks, ref.writebacks());
}

/** Reference model for write-through / no-write-allocate. */
class RefCacheWt
{
  public:
    explicit RefCacheWt(const CacheGeometry &geom)
        : geom_(geom), sets_(geom.numSets())
    {
    }

    bool
    access(const MemAccess &req)
    {
        auto &set = sets_[geom_.index(req.addr)];
        const Addr tag = geom_.tag(req.addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                const Addr t = *it;
                set.erase(it);
                set.push_front(t);
                if (req.type == AccessType::Write)
                    ++stores_;
                return true;
            }
        }
        if (req.type == AccessType::Write) {
            ++stores_; // forwarded, not allocated
            return false;
        }
        if (set.size() == geom_.ways())
            set.pop_back();
        set.push_front(tag);
        return false;
    }

    std::uint64_t stores() const { return stores_; }

  private:
    CacheGeometry geom_;
    std::vector<std::list<Addr>> sets_;
    std::uint64_t stores_ = 0;
};

TEST(OracleWriteThrough, SetAssocWtMatchesReference)
{
    const CacheGeometry g(4096, 32, 4);
    MainMemory mem(1);
    SetAssocCache dut("dut", g, 1, &mem, ReplPolicyKind::LRU, 1,
                      WritePolicy::WriteThroughNoAllocate);
    RefCacheWt ref(g);
    for (const auto &a : randomTraffic(40000, 16, 0.35, 31))
        ASSERT_EQ(dut.access(a).hit, ref.access(a));
    EXPECT_EQ(dut.stats().writethroughs, ref.stores());
    EXPECT_EQ(dut.stats().writebacks, 0u);
    // Every store reaches memory exactly once under write-through.
    EXPECT_EQ(mem.writebacks(), ref.stores());
}

TEST(OracleWriteThrough, BCacheFullPiWtMatchesReference)
{
    BCacheParams p;
    p.sizeBytes = 1024;
    p.lineBytes = 32;
    p.bas = 4;
    p.mf = 256;
    p.writePolicy = WritePolicy::WriteThroughNoAllocate;
    MainMemory mem(1);
    BCache dut("bc", p, 1, &mem);
    RefCacheWt ref(CacheGeometry(1024, 32, 4));
    for (const auto &a : randomTraffic(40000, 18, 0.35, 47))
        ASSERT_EQ(dut.access(a).hit, ref.access(a));
    EXPECT_EQ(dut.stats().writethroughs, ref.stores());
    EXPECT_EQ(dut.stats().writebacks, 0u);
    EXPECT_TRUE(dut.checkUniqueDecoding());
}

TEST(OracleConservation, HierarchyTrafficSumRules)
{
    // L2 demand accesses == L1I misses + L1D misses; memory reads ==
    // L2 demand misses (write-allocated writebacks add refills but no
    // demand reads from memory on the critical path are miscounted).
    CacheHierarchy h;
    h.setL1I(parseCacheSpec("dm:16kB").build("L1I"));
    h.setL1D(parseCacheSpec("dm:16kB").build("L1D"));
    SpecWorkload w = makeSpecWorkload("twolf");
    for (int i = 0; i < 60000; ++i) {
        h.fetch(w.inst->next().addr);
        const MemAccess a = w.data->next();
        if (a.type == AccessType::Write)
            h.store(a.addr);
        else
            h.load(a.addr);
    }
    EXPECT_EQ(h.l2().stats().accesses,
              h.l1i().stats().misses + h.l1d().stats().misses);
    EXPECT_EQ(h.memory().reads(), h.l2().stats().misses);
    // Every L1 demand access is either a hit or produced one L2 access.
    EXPECT_EQ(h.l1d().stats().hits + h.l1d().stats().misses,
              h.l1d().stats().accesses);
}

} // namespace
} // namespace bsim
