/**
 * @file
 * Replacement state for set-associative structures, the B-Cache's victim
 * pools and the victim buffer. The paper evaluates LRU and random
 * (Section 3.3); FIFO, tree-PLRU and NMRU are provided for the
 * replacement ablation bench.
 */

#ifndef BSIM_CACHE_REPLACEMENT_HH
#define BSIM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace bsim {

/** Kinds of replacement policies available by name. */
enum class ReplPolicyKind : std::uint8_t {
    LRU,
    Random,
    FIFO,
    TreePLRU,
    NMRU,
};

const char *replPolicyName(ReplPolicyKind k);

/** Policy named @p name (case-insensitive; "rand", "tree-plru" too). */
std::optional<ReplPolicyKind> replPolicyFromName(const std::string &name);

/**
 * Per-structure replacement state over (sets x ways), one concrete value
 * for every policy.
 *
 * The owner reports fills and touches; victim() is only consulted when
 * every way in the set is occupied (TagStore::fillWay() fills empty
 * frames first). touch() and fill() are inline switches on the kind, so
 * the batched hit paths call them directly; victim() is inline for the
 * stamp policies and calls out of line for the rest.
 *
 *  - LRU stamps a way on touch and fill, FIFO on fill only; both evict
 *    the lowest stamp (lowest way on ties), found by a min-scan with no
 *    data-dependent branch. Stamps (8 B per way) suit any width; a
 *    packed recency word would make every hit a read-modify-write.
 *  - Tree-PLRU keeps ways - 1 direction bits per set.
 *  - Random and NMRU draw from an Rng seeded at construction and at
 *    every reset(); NMRU never picks the set's most recent way.
 */
class Replacement
{
  public:
    Replacement(ReplPolicyKind kind, std::size_t sets, std::size_t ways,
                std::uint64_t seed = 1);

    ReplPolicyKind kind() const { return kind_; }
    std::size_t ways() const { return ways_; }

    /** A hit touched (set, way). */
    void
    touch(std::size_t set, std::size_t way)
    {
        switch (kind_) {
          case ReplPolicyKind::LRU:
            stamps_[set * ways_ + way] = ++now_;
            return;
          case ReplPolicyKind::TreePLRU:
            plruTouch(set, way);
            return;
          case ReplPolicyKind::NMRU:
            mru_[set] = static_cast<std::uint32_t>(way);
            return;
          case ReplPolicyKind::Random:
          case ReplPolicyKind::FIFO:
            return;
        }
    }

    /** (set, way) was refilled with a new block. */
    void
    fill(std::size_t set, std::size_t way)
    {
        if (kind_ == ReplPolicyKind::FIFO)
            stamps_[set * ways_ + way] = ++now_;
        else
            touch(set, way);
    }

    /** Pick a victim way in a fully valid set. */
    std::size_t
    victim(std::size_t set)
    {
        if (kind_ != ReplPolicyKind::LRU && kind_ != ReplPolicyKind::FIFO)
            return otherVictim(set);
        // Strict '<' keeps the lowest way on ties.
        const Tick *row = &stamps_[set * ways_];
        std::size_t best = 0;
        Tick best_stamp = row[0];
        for (std::size_t w = 1; w < ways_; ++w) {
            const bool older = row[w] < best_stamp;
            best = older ? w : best;
            best_stamp = older ? row[w] : best_stamp;
        }
        return best;
    }

    /** Back to the constructed state (stamps, bits and Rng). */
    void reset();

  private:
    void plruTouch(std::size_t set, std::size_t way);
    /** victim() of the random, tree-PLRU and NMRU policies. */
    std::size_t otherVictim(std::size_t set);

    ReplPolicyKind kind_;
    std::size_t sets_;
    std::size_t ways_;
    std::uint64_t seed_;
    Rng rng_;
    Tick now_ = 0;
    /** LRU: last touch or fill; FIFO: last fill. sets x ways. */
    std::vector<Tick> stamps_;
    /** Tree-PLRU: ways - 1 internal tree nodes per set, stored flat. */
    std::vector<std::uint8_t> plru_;
    /** NMRU: most recently touched or filled way per set. */
    std::vector<std::uint32_t> mru_;
};

} // namespace bsim

#endif // BSIM_CACHE_REPLACEMENT_HH
