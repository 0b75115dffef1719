/**
 * @file
 * The one tag array of every cache organisation, the victim buffer and
 * the TLB: a flat table of frames, each holding a key (the stored tag,
 * block number, B-Cache upper field or VPN) and a dirty flag.
 *
 * Keys live in one contiguous array, so a set's row is a plain run of
 * 8-byte words; an empty frame holds kEmptyKey (cache/way_filter.hh).
 * Every key drops at least one low address bit, so the sentinel can
 * never equal a probe key and a lookup needs no separate valid test.
 * Dirty flags sit in a parallel byte array (9 bytes per frame in all)
 * and are only ever set on occupied frames.
 *
 * A variant addresses frames by index; a set-associative row is the
 * @p n frames from @p first. Variant-only per-frame state (column
 * rehash bits, skewed recency) lives in side arrays in the variant.
 */

#ifndef BSIM_CACHE_TAG_STORE_HH
#define BSIM_CACHE_TAG_STORE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/replacement.hh"
#include "cache/way_filter.hh"
#include "common/logging.hh"

namespace bsim {

class TagStore
{
  public:
    /**
     * @param frames number of frames
     * @param stripped_bits low address bits every key drops (at least
     *        one, so no key can be all ones)
     */
    TagStore(std::size_t frames, unsigned stripped_bits)
        : keys_(frames, kEmptyKey), dirty_(frames, 0)
    {
        bsim_assert(stripped_bits >= 1,
                    "a key spanning the whole address aliases the "
                    "empty-frame marker");
    }

    std::size_t size() const { return keys_.size(); }

    Addr key(std::size_t f) const { return keys_[f]; }
    bool valid(std::size_t f) const { return keys_[f] != kEmptyKey; }
    bool dirty(std::size_t f) const { return dirty_[f] != 0; }

    /**
     * Way of the row [first, first + n) holding @p key, or -1, with
     * @p filter deciding which ways activate (cache/way_filter.hh).
     */
    template <typename Filter = AllWays>
    int
    find(std::size_t first, std::size_t n, Addr key,
         Filter &&filter = {}) const
    {
        return scanWays(keys_.data() + first, n, key,
                        std::forward<Filter>(filter));
    }

    /**
     * Way of the row [first, first + n) to fill: its first empty frame,
     * else the victim @p repl picks in @p set.
     */
    std::size_t
    fillWay(std::size_t first, std::size_t n, Replacement &repl,
            std::size_t set) const
    {
        for (std::size_t w = 0; w < n; ++w)
            if (keys_[first + w] == kEmptyKey)
                return w;
        return repl.victim(set);
    }

    void
    fill(std::size_t f, Addr key, bool dirty)
    {
        keys_[f] = key;
        dirty_[f] = dirty;
    }

    void setDirty(std::size_t f) { dirty_[f] = 1; }

    void clear(std::size_t f) { fill(f, kEmptyKey, false); }

    void
    swap(std::size_t a, std::size_t b)
    {
        std::swap(keys_[a], keys_[b]);
        std::swap(dirty_[a], dirty_[b]);
    }

    std::size_t
    validCount() const
    {
        return keys_.size() - static_cast<std::size_t>(std::count(
                                  keys_.begin(), keys_.end(), kEmptyKey));
    }

    void
    reset()
    {
        std::fill(keys_.begin(), keys_.end(), kEmptyKey);
        std::fill(dirty_.begin(), dirty_.end(), 0);
    }

  private:
    std::vector<Addr> keys_;
    std::vector<std::uint8_t> dirty_;
};

} // namespace bsim

#endif // BSIM_CACHE_TAG_STORE_HH
