/**
 * @file
 * The IndexFunction layer of the tag-array engine: every "where may a
 * block live" mapping used by the cache variants, collected in one
 * place. The related work the paper compares against is largely a space
 * of such index functions (Section 7.1), so each variant's probe() hook
 * names its mapping explicitly instead of hand-rolling the bit math:
 *
 *   moduloIndex        the plain power-of-two decode (SetAssocCache,
 *                      VictimCache, PartialMatchCache, HacCache
 *                      subarrays, column-assoc first probe)
 *   xorFoldIndex       index XOR the adjacent tag slice (XorIndexCache,
 *                      and bank 0 of the skewed cache)
 *   skewBankIndex      per-bank skewing functions (SkewedAssocCache)
 *   columnRehashIndex  b(x) with the MSB flipped (ColumnAssocCache)
 *   bcacheGroupIndex / bcacheUpperField
 *                      the B-Cache's NPI decode and the stored upper
 *                      field whose low PI bits are the programmable
 *                      pattern (the dynamic member of this family)
 *
 * All functions are pure; geometry provides the bit widths. Adding a new
 * static mapping means adding one function here and calling it from a
 * ~30-line variant (docs/ARCHITECTURE.md shows the recipe).
 */

#ifndef BSIM_CACHE_INDEX_FUNCTION_HH
#define BSIM_CACHE_INDEX_FUNCTION_HH

#include "common/bits.hh"
#include "mem/geometry.hh"

namespace bsim {

/** The conventional decode: low index bits of the block number. */
inline std::size_t
moduloIndex(const CacheGeometry &geom, Addr addr)
{
    return geom.index(addr);
}

/**
 * The classic single-slice hash: index XOR the adjacent tag slice.
 * (Folding more tag bits disperses more strides but scrambles
 * well-laid-out data even harder.)
 */
inline std::size_t
xorFoldIndex(const CacheGeometry &geom, Addr addr)
{
    const unsigned ib = geom.indexBits();
    const Addr block = geom.blockNumber(addr);
    return static_cast<std::size_t>((block ^ (block >> ib)) & mask(ib));
}

/**
 * Skewed-associative bank mapping (Seznec): bank 0 uses the plain XOR
 * fold; bank 1 skews with a bit-reversed tag slice so that addresses
 * colliding in bank 0 spread out in bank 1.
 */
inline std::size_t
skewBankIndex(const CacheGeometry &geom, unsigned bank, Addr addr)
{
    if (bank == 0)
        return xorFoldIndex(geom, addr);
    const unsigned ib = geom.indexBits();
    const Addr block = geom.blockNumber(addr);
    const Addr idx = block & mask(ib);
    const Addr tag_low = (block >> ib) & mask(ib);
    return static_cast<std::size_t>(idx ^ reverseBits(tag_low, ib));
}

/**
 * Column-associative rehash function f(x): the primary index with its
 * most significant bit flipped (Agarwal & Pudar).
 */
inline std::size_t
columnRehashIndex(const CacheGeometry &geom, std::size_t primary)
{
    return primary ^ (std::size_t{1} << (geom.indexBits() - 1));
}

/** B-Cache NPI decode: the group an address maps to. */
inline std::size_t
bcacheGroupIndex(const CacheGeometry &geom, unsigned npi_bits, Addr addr)
{
    return static_cast<std::size_t>(
        bitsRange(addr, geom.offsetBits(), npi_bits));
}

/**
 * B-Cache stored upper field: everything above the NPI bits. Its low PI
 * bits are the line's programmable-decoder pattern.
 */
inline Addr
bcacheUpperField(const CacheGeometry &geom, unsigned npi_bits, Addr addr)
{
    return addr >> (geom.offsetBits() + npi_bits);
}

} // namespace bsim

#endif // BSIM_CACHE_INDEX_FUNCTION_HH
