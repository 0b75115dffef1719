/**
 * @file
 * Two-level memory hierarchy matching the paper's Table 4: split L1
 * (pluggable organisation), unified 4-way 256 kB L2 with 128 B lines and a
 * 6-cycle hit, and 100-cycle main memory.
 */

#ifndef BSIM_CACHE_HIERARCHY_HH
#define BSIM_CACHE_HIERARCHY_HH

#include <compare>
#include <memory>

#include "cache/set_assoc_cache.hh"
#include "mem/main_memory.hh"

namespace bsim {

/** Hierarchy configuration (defaults = the paper's Table 4). */
struct HierarchyParams
{
    Cycles l1HitLatency = 1;
    std::uint64_t l2SizeBytes = 256 * 1024;
    std::uint32_t l2LineBytes = 128;
    std::uint32_t l2Ways = 4;
    Cycles l2HitLatency = 6;
    Cycles memLatency = 100;

    /** Member-wise, so a key holding the struct compares all of it. */
    auto operator<=>(const HierarchyParams &) const = default;
};

/**
 * Owns the L2 and main memory and wires pluggable L1 instruction/data
 * caches on top. L1 caches are created by the caller (they may be any
 * BaseCache organisation) with next level initially null; adoption rewires
 * them to the shared L2.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams &params = {});

    /** Adopt an L1 instruction cache and wire it to the L2. */
    void setL1I(std::unique_ptr<BaseCache> l1i);
    /** Adopt an L1 data cache and wire it to the L2. */
    void setL1D(std::unique_ptr<BaseCache> l1d);

    BaseCache &l1i() { return *l1i_; }
    BaseCache &l1d() { return *l1d_; }
    const BaseCache &l1i() const { return *l1i_; }
    const BaseCache &l1d() const { return *l1d_; }
    BaseCache &l2() { return *l2_; }
    const BaseCache &l2() const { return *l2_; }
    MainMemory &memory() { return *mem_; }
    const MainMemory &memory() const { return *mem_; }

    const HierarchyParams &params() const { return params_; }

    /** Instruction fetch; returns total latency. */
    AccessOutcome fetch(Addr addr);
    /** Data load. */
    AccessOutcome load(Addr addr);
    /** Data store. */
    AccessOutcome store(Addr addr);

    /** Reset all levels (contents and statistics). */
    void reset();

  private:
    HierarchyParams params_;
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<BaseCache> l2_;
    std::unique_ptr<BaseCache> l1i_;
    std::unique_ptr<BaseCache> l1d_;
};

} // namespace bsim

#endif // BSIM_CACHE_HIERARCHY_HH
