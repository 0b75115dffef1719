#include "cache/tlb.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace bsim {

namespace {

/** Sets of a TLB shape; fatal unless every size is a power of two. */
std::size_t
checkedSets(std::uint32_t page_bytes, std::uint32_t entries,
            std::uint32_t ways)
{
    if (!isPowerOfTwo(page_bytes))
        bsim_fatal("page size must be a power of two, got ", page_bytes);
    if (!isPowerOfTwo(entries) || !isPowerOfTwo(ways) || ways > entries)
        bsim_fatal("bad TLB shape: entries=", entries, " ways=", ways);
    return entries / ways;
}

} // namespace

Tlb::Tlb(std::uint32_t page_bytes, std::uint32_t entries,
         std::uint32_t ways)
    : pageBytes_(page_bytes),
      sets_(checkedSets(page_bytes, entries, ways)),
      ways_(ways),
      entries_(entries, floorLog2(page_bytes)),
      repl_(ReplPolicyKind::LRU, sets_, ways)
{
    pageOffsetBits_ = floorLog2(page_bytes);
}

Addr
Tlb::frameOf(Addr vpn) const
{
    // splitmix-style deterministic hash: a synthetic page table whose
    // frame bits above the page offset are decorrelated from the VPN
    // (like an OS's physical allocator).
    Addr z = vpn + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    // 1 GB of physical frames.
    return z & mask(30 - pageOffsetBits_);
}

Addr
Tlb::translateFunctional(Addr vaddr) const
{
    const Addr vpn = vpnOf(vaddr);
    return (frameOf(vpn) << pageOffsetBits_) |
           (vaddr & mask(pageOffsetBits_));
}

Addr
Tlb::translate(Addr vaddr)
{
    const Addr vpn = vpnOf(vaddr);
    const std::size_t set = setOf(vpn);
    const std::size_t first = set * ways_;
    ++stats_.accesses;
    const int way = entries_.find(first, ways_, vpn);
    if (way >= 0) {
        ++stats_.hits;
        repl_.touch(set, static_cast<std::size_t>(way));
    } else {
        ++stats_.misses;
        const std::size_t victim = entries_.fillWay(first, ways_, repl_, set);
        entries_.fill(first + victim, vpn, false);
        repl_.fill(set, victim);
    }
    return translateFunctional(vaddr);
}

bool
Tlb::isCached(Addr vaddr) const
{
    const Addr vpn = vpnOf(vaddr);
    return entries_.find(setOf(vpn) * ways_, ways_, vpn) >= 0;
}

void
Tlb::reset()
{
    entries_.reset();
    repl_.reset();
    stats_.reset();
}

} // namespace bsim
