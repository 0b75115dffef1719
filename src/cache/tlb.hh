/**
 * @file
 * A set-associative TLB model with a deterministic synthetic page table,
 * used by the Section 6.8 addressing analysis: the B-Cache needs three
 * tag bits *before* set indexing, which is only free of translation
 * hazards if those bits sit below the page offset or are treated as
 * virtual index bits.
 */

#ifndef BSIM_CACHE_TLB_HH
#define BSIM_CACHE_TLB_HH

#include <cstdint>

#include "cache/replacement.hh"
#include "cache/tag_store.hh"
#include "common/types.hh"

namespace bsim {

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }

    void reset() { *this = TlbStats{}; }
};

/**
 * Translation lookaside buffer over a synthetic deterministic page
 * table: virtual page v maps to physical frame hash(v) within a
 * configurable physical-frame space. The mapping is a fixed bijection on
 * the low frame bits is *not* guaranteed — like a real OS allocation,
 * bits above the page offset generally change under translation, which
 * is exactly the hazard Section 6.8 discusses.
 */
class Tlb
{
  public:
    /**
     * @param page_bytes page size (power of two, default 4 kB)
     * @param entries number of TLB entries
     * @param ways associativity (entries/ways sets); LRU replacement
     */
    Tlb(std::uint32_t page_bytes = 4096, std::uint32_t entries = 64,
        std::uint32_t ways = 4);

    /** Translate a virtual address; records hit/miss statistics. */
    Addr translate(Addr vaddr);

    /** The translation function itself (no TLB state touched). */
    Addr translateFunctional(Addr vaddr) const;

    /** True if the page containing @p vaddr is currently cached. */
    bool isCached(Addr vaddr) const;

    const TlbStats &stats() const { return stats_; }
    std::uint32_t pageBytes() const { return pageBytes_; }
    unsigned pageOffsetBits() const { return pageOffsetBits_; }

    void reset();

  private:
    Addr vpnOf(Addr vaddr) const { return vaddr >> pageOffsetBits_; }
    std::size_t setOf(Addr vpn) const
    {
        return static_cast<std::size_t>(vpn) & (sets_ - 1);
    }
    /** Synthetic page table: deterministic VPN -> PFN mapping. */
    Addr frameOf(Addr vpn) const;

    std::uint32_t pageBytes_;
    unsigned pageOffsetBits_;
    std::size_t sets_;
    std::uint32_t ways_;
    TagStore entries_; ///< keyed by VPN; the PFN is frameOf(vpn)
    Replacement repl_;
    TlbStats stats_;
};

} // namespace bsim

#endif // BSIM_CACHE_TLB_HH
