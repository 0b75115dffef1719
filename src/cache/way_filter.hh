/**
 * @file
 * The WayFilter (activation) layer of the tag-array engine: which ways
 * of a set wake up for the tag comparison. A filter decides per way
 * whether the full comparator runs, and models the energy/prediction
 * side effects of the structures that gate activation in hardware:
 *
 *   AllWays        every way activates (the conventional cache); the
 *                  scan compares every way and selects the match
 *                  without a branch
 *   PadPredictor   partial-address matching: the PAD predicts the hit
 *                  way from the first partial match; aliases (several
 *                  partial matches) and mispredictions cost extra
 *
 * Filters see one set's row of frame keys (cache/tag_store.hh), where
 * an empty frame holds kEmptyKey. scanWays() runs a filter over the row
 * and returns the full-key hit way. Filters that observe every way
 * (kScanAll) keep scanning after a hit — the hardware they model
 * compares all ways in parallel.
 */

#ifndef BSIM_CACHE_WAY_FILTER_HH
#define BSIM_CACHE_WAY_FILTER_HH

#include <cstdint>
#include <type_traits>

#include "common/bits.hh"
#include "common/types.hh"

namespace bsim {

/**
 * Key of an empty frame. Every key drops at least one low address bit
 * (TagStore checks this at construction), so no probe key equals it.
 */
inline constexpr Addr kEmptyKey = ~Addr{0};

/** The conventional cache: every way's comparator runs. */
struct AllWays
{
    static constexpr bool kScanAll = false;

    bool activate(std::size_t, Addr) { return true; }
};

/**
 * Partial-address-directory predictor: tracks the first way whose
 * partial tag matches (the PAD's speculative way choice) and how many
 * ways matched (an alias forces the full comparison to disambiguate).
 * All occupied ways stay activated — the Main Directory compares them
 * in parallel to confirm or reject the prediction.
 */
class PadPredictor
{
  public:
    static constexpr bool kScanAll = true;

    PadPredictor(Addr partial, unsigned partial_bits)
        : part_(partial), mask_(mask(partial_bits))
    {
    }

    bool
    activate(std::size_t way, Addr key)
    {
        if (key == kEmptyKey)
            return false;
        if ((key & mask_) == part_) {
            ++matches_;
            if (predicted_ < 0)
                predicted_ = static_cast<int>(way);
        }
        return true;
    }

    /** The PAD's predicted way, or -1 when no partial tag matched. */
    int predicted() const { return predicted_; }
    /** Number of ways whose partial tag matched. */
    unsigned matches() const { return matches_; }

  private:
    Addr part_;
    Addr mask_;
    int predicted_ = -1;
    unsigned matches_ = 0;
};

/**
 * Run @p filter over one set's @p ways keys; returns the way holding
 * @p key, or -1. Without kScanAll every way activates, and the scan is
 * a select with no data-dependent branch: it runs from the last way
 * down, so a duplicated key (only debug fault injection makes one)
 * still resolves to the lowest way. A one-way row stays a plain
 * compare, which the caller's hit test then branches on directly, so
 * the hit frame does not wait for the key load. kScanAll filters
 * observe every way in order and report the last activated match.
 */
template <typename Filter>
inline int
scanWays(const Addr *row, std::size_t ways, Addr key, Filter &&filter)
{
    int hit_way = -1;
    if constexpr (!std::remove_reference_t<Filter>::kScanAll) {
        if (ways == 1)
            return row[0] == key ? 0 : -1;
        for (std::size_t w = ways; w-- > 0;)
            hit_way = row[w] == key ? static_cast<int>(w) : hit_way;
    } else {
        for (std::size_t w = 0; w < ways; ++w)
            if (filter.activate(w, row[w]) && row[w] == key)
                hit_way = static_cast<int>(w);
    }
    return hit_way;
}

} // namespace bsim

#endif // BSIM_CACHE_WAY_FILTER_HH
