#include "cache/replacement.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace bsim {

const char *
replPolicyName(ReplPolicyKind k)
{
    switch (k) {
      case ReplPolicyKind::LRU:
        return "lru";
      case ReplPolicyKind::Random:
        return "random";
      case ReplPolicyKind::FIFO:
        return "fifo";
      case ReplPolicyKind::TreePLRU:
        return "plru";
      case ReplPolicyKind::NMRU:
        return "nmru";
    }
    return "?";
}

std::optional<ReplPolicyKind>
replPolicyFromName(const std::string &name)
{
    const std::string n = toLower(name);
    if (n == "lru")
        return ReplPolicyKind::LRU;
    if (n == "random" || n == "rand")
        return ReplPolicyKind::Random;
    if (n == "fifo")
        return ReplPolicyKind::FIFO;
    if (n == "plru" || n == "tree-plru")
        return ReplPolicyKind::TreePLRU;
    if (n == "nmru")
        return ReplPolicyKind::NMRU;
    return std::nullopt;
}

Replacement::Replacement(ReplPolicyKind kind, std::size_t sets,
                         std::size_t ways, std::uint64_t seed)
    : kind_(kind), sets_(sets), ways_(ways), seed_(seed), rng_(seed)
{
    if (kind_ == ReplPolicyKind::TreePLRU)
        bsim_assert(isPowerOfTwo(ways), "tree-PLRU needs power-of-two ways");
    reset();
}

void
Replacement::reset()
{
    rng_ = Rng(seed_);
    now_ = 0;
    switch (kind_) {
      case ReplPolicyKind::LRU:
      case ReplPolicyKind::FIFO:
        stamps_.assign(sets_ * ways_, 0);
        break;
      case ReplPolicyKind::TreePLRU:
        plru_.assign(sets_ * (ways_ > 1 ? ways_ - 1 : 1), 0);
        break;
      case ReplPolicyKind::NMRU:
        mru_.assign(sets_, 0);
        break;
      case ReplPolicyKind::Random:
        break;
    }
}

void
Replacement::plruTouch(std::size_t set, std::size_t way)
{
    if (ways_ < 2)
        return;
    // Walk from the root; at each node record that we went towards 'way'
    // so the PLRU bit points the *other* direction.
    std::uint8_t *tree = &plru_[set * (ways_ - 1)];
    std::size_t node = 0;
    std::size_t lo = 0, hi = ways_;
    while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        const bool right = way >= mid;
        tree[node] = right ? 0 : 1; // 1 = victim side is right
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
}

std::size_t
Replacement::otherVictim(std::size_t set)
{
    switch (kind_) {
      case ReplPolicyKind::LRU:
      case ReplPolicyKind::FIFO:
        break; // victim() scans the stamps inline
      case ReplPolicyKind::Random:
        return rng_.nextBounded(ways_);
      case ReplPolicyKind::TreePLRU: {
        if (ways_ < 2)
            return 0;
        const std::uint8_t *tree = &plru_[set * (ways_ - 1)];
        std::size_t node = 0;
        std::size_t lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::size_t mid = (lo + hi) / 2;
            const bool right = tree[node] != 0;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
      }
      case ReplPolicyKind::NMRU: {
        if (ways_ == 1)
            return 0;
        const std::size_t pick = rng_.nextBounded(ways_ - 1);
        return pick >= mru_[set] ? pick + 1 : pick;
      }
    }
    bsim_panic("bad policy kind");
}

} // namespace bsim
