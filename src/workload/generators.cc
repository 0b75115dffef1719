#include "workload/generators.hh"

#include <numeric>

#include "common/logging.hh"

namespace bsim {

std::vector<MemAccess>
drain(AccessStream &stream, std::size_t n)
{
    std::vector<MemAccess> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(stream.next());
    return out;
}

// ----------------------------------------------------- SequentialStream

SequentialStream::SequentialStream(Addr base, std::uint64_t bytes,
                                   std::uint32_t elem_bytes)
    : base_(base), bytes_(bytes), elem_(elem_bytes)
{
    bsim_assert(bytes_ >= elem_ && elem_ > 0);
}

MemAccess
SequentialStream::next()
{
    const Addr a = base_ + (pos_ * elem_) % bytes_;
    ++pos_;
    return {a, AccessType::Read};
}

// ----------------------------------------------- StridedConflictStream

StridedConflictStream::StridedConflictStream(Addr base,
                                             std::uint64_t stride,
                                             std::uint32_t count,
                                             std::uint32_t line_words,
                                             std::uint32_t word_bytes)
    : base_(base), stride_(stride), count_(count), lineWords_(line_words),
      wordBytes_(word_bytes)
{
    bsim_assert(count_ > 0 && lineWords_ > 0 && wordBytes_ > 0);
}

MemAccess
StridedConflictStream::next()
{
    // Walk words within a line on the outside so consecutive accesses hit
    // *different* conflicting lines: a0 a1 a2 ... a0+w a1+w ...
    const std::uint64_t which = pos_ % count_;
    const std::uint64_t word = (pos_ / count_) % lineWords_;
    ++pos_;
    return {base_ + which * stride_ + word * wordBytes_,
            AccessType::Read};
}

// ----------------------------------------------------- LoopNestStream

LoopNestStream::LoopNestStream(Addr base, std::uint32_t arrays,
                               std::uint64_t array_spacing,
                               std::uint32_t rows, std::uint32_t cols,
                               std::uint64_t row_stride,
                               std::uint32_t elem_bytes)
    : base_(base), arrays_(arrays), spacing_(array_spacing), rows_(rows),
      cols_(cols), rowStride_(row_stride), elem_(elem_bytes)
{
    bsim_assert(arrays_ > 0 && rows_ > 0 && cols_ > 0);
}

MemAccess
LoopNestStream::next()
{
    // Innermost: array id; then column; then row.
    const std::uint64_t a = pos_ % arrays_;
    const std::uint64_t j = (pos_ / arrays_) % cols_;
    const std::uint64_t i = (pos_ / arrays_ / cols_) % rows_;
    ++pos_;
    return {base_ + a * spacing_ + i * rowStride_ + j * elem_,
            AccessType::Read};
}

// --------------------------------------------------------- ZipfStream

ZipfStream::ZipfStream(Addr base, std::uint64_t blocks,
                       std::uint32_t block_bytes, double alpha,
                       std::uint64_t seed)
    : base_(base), blockBytes_(block_bytes), sampler_(blocks, alpha),
      rng_(seed)
{
    perm_.resize(blocks);
    std::iota(perm_.begin(), perm_.end(), 0u);
    // Fisher-Yates with a dedicated generator, so the sampling stream
    // starts at the seed whatever the region size.
    Rng shuffle_rng(seed ^ 0xabcdef12345ULL);
    for (std::size_t i = blocks; i > 1; --i) {
        const std::size_t j = shuffle_rng.nextBounded(i);
        std::swap(perm_[i - 1], perm_[j]);
    }
}

MemAccess
ZipfStream::next()
{
    const std::size_t rank = sampler_(rng_);
    const std::uint32_t block = perm_[rank];
    const Addr off = rng_.nextBounded(blockBytes_ / 8) * 8;
    return {base_ + Addr{block} * blockBytes_ + off, AccessType::Read};
}

// -------------------------------------------------- PointerChaseStream

PointerChaseStream::PointerChaseStream(Addr base, std::uint64_t nodes,
                                       std::uint32_t node_bytes,
                                       std::uint64_t seed)
    : base_(base), nodeBytes_(node_bytes)
{
    bsim_assert(nodes > 0 && nodes <= (1ull << 32));
    // Sattolo's algorithm: a uniform random single-cycle permutation.
    nextNode_.resize(nodes);
    std::iota(nextNode_.begin(), nextNode_.end(), 0u);
    Rng rng(seed);
    for (std::size_t i = nodes - 1; i > 0; --i) {
        const std::size_t j = rng.nextBounded(i);
        std::swap(nextNode_[i], nextNode_[j]);
    }
}

MemAccess
PointerChaseStream::next()
{
    const Addr a = base_ + Addr{cur_} * nodeBytes_;
    cur_ = nextNode_[cur_];
    return {a, AccessType::Read};
}

// -------------------------------------------------------- StackStream

StackStream::StackStream(Addr stack_top, std::uint32_t max_depth,
                         std::uint32_t frame_bytes, std::uint64_t seed)
    : top_(stack_top), maxDepth_(max_depth), frameBytes_(frame_bytes),
      rng_(seed)
{
    bsim_assert(maxDepth_ > 0 && frameBytes_ >= 8);
}

MemAccess
StackStream::next()
{
    // Random walk on the depth; accesses touch the live frame. Stacks
    // grow downwards from top_.
    if (rng_.nextBool(0.5)) {
        if (depth_ + 1 < maxDepth_)
            ++depth_;
    } else if (depth_ > 0) {
        --depth_;
    }
    const Addr frame = top_ - Addr{depth_ + 1} * frameBytes_;
    const Addr off = rng_.nextBounded(frameBytes_ / 8) * 8;
    const bool is_write = rng_.nextBool(0.4);
    return {frame + off,
            is_write ? AccessType::Write : AccessType::Read};
}

// --------------------------------------------------- InterleaveStream

InterleaveStream::InterleaveStream(std::vector<AccessStreamPtr> children,
                                   std::vector<double> weights,
                                   std::uint64_t seed)
    : children_(std::move(children)), rng_(seed)
{
    bsim_assert(!children_.empty() &&
                children_.size() == weights.size());
    double sum = 0;
    for (double w : weights) {
        bsim_assert(w >= 0);
        sum += w;
    }
    bsim_assert(sum > 0);
    double acc = 0;
    for (double w : weights) {
        acc += w / sum;
        cdf_.push_back(acc);
    }
    cdf_.back() = 1.0;
}

MemAccess
InterleaveStream::next()
{
    const double u = rng_.nextDouble();
    std::size_t i = 0;
    while (i + 1 < cdf_.size() && u >= cdf_[i])
        ++i;
    return children_[i]->next();
}

// ----------------------------------------------------- WriteMixStream

WriteMixStream::WriteMixStream(AccessStreamPtr child,
                               double write_fraction, std::uint64_t seed)
    : child_(std::move(child)), writeFraction_(write_fraction), rng_(seed)
{
    bsim_assert(child_ != nullptr);
    bsim_assert(writeFraction_ >= 0.0 && writeFraction_ <= 1.0);
}

MemAccess
WriteMixStream::next()
{
    MemAccess a = child_->next();
    if (a.type == AccessType::Read && rng_.nextBool(writeFraction_))
        a.type = AccessType::Write;
    return a;
}

// ------------------------------------------------------- VectorStream

VectorStream::VectorStream(std::vector<MemAccess> accesses)
    : accesses_(std::move(accesses))
{
    bsim_assert(!accesses_.empty());
}

MemAccess
VectorStream::next()
{
    const MemAccess a = accesses_[pos_];
    pos_ = (pos_ + 1) % accesses_.size();
    return a;
}

} // namespace bsim
