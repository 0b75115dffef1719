/**
 * @file
 * The catalogue of primitive synthetic address generators used to stand in
 * for the SPEC2K benchmarks (see DESIGN.md for the substitution argument).
 *
 * Each primitive exercises one locality/conflict archetype:
 *  - SequentialStream: streaming sweeps (capacity misses, e.g. swim/art)
 *  - StridedConflictStream: K addresses spaced by a large power-of-two
 *    stride (classic direct-mapped conflict thrash, e.g. equake)
 *  - LoopNestStream: 2-D row/column walks with conflicting row strides
 *  - ZipfStream: hot/cold block popularity (integer codes)
 *  - PointerChaseStream: dependent random walk (mcf-like)
 *  - StackStream: call-stack push/pop locality
 * plus a combinator (InterleaveStream) and a WriteMix wrapper that
 * converts a fraction of reads into writes.
 */

#ifndef BSIM_WORKLOAD_GENERATORS_HH
#define BSIM_WORKLOAD_GENERATORS_HH

#include <vector>

#include "common/random.hh"
#include "workload/access_stream.hh"

namespace bsim {

/** Repeatedly sweeps [base, base + bytes) with a fixed element step. */
class SequentialStream : public AccessStream
{
  public:
    SequentialStream(Addr base, std::uint64_t bytes,
                     std::uint32_t elem_bytes = 8);

    MemAccess next() override;

  private:
    Addr base_;
    std::uint64_t bytes_;
    std::uint32_t elem_;
    std::uint64_t pos_ = 0;
};

/**
 * Cycles through @p count addresses spaced @p stride bytes apart, with a
 * small intra-line rotation so several words of each line are touched.
 * With stride a multiple of the cache size this is the canonical
 * direct-mapped conflict generator (the paper's 0,1,8,9,... example).
 */
class StridedConflictStream : public AccessStream
{
  public:
    StridedConflictStream(Addr base, std::uint64_t stride,
                          std::uint32_t count,
                          std::uint32_t line_words = 4,
                          std::uint32_t word_bytes = 8);

    MemAccess next() override;

  private:
    Addr base_;
    std::uint64_t stride_;
    std::uint32_t count_;
    std::uint32_t lineWords_;
    std::uint32_t wordBytes_;
    std::uint64_t pos_ = 0;
};

/**
 * Row/column loop nest: for i in rows, for j in cols, touch
 * A + i*row_stride + j*elem for each of @p arrays arrays whose bases are
 * @p array_spacing apart. Power-of-two spacings equal to the cache size
 * make the arrays conflict in every set.
 */
class LoopNestStream : public AccessStream
{
  public:
    LoopNestStream(Addr base, std::uint32_t arrays,
                   std::uint64_t array_spacing, std::uint32_t rows,
                   std::uint32_t cols, std::uint64_t row_stride,
                   std::uint32_t elem_bytes = 8);

    MemAccess next() override;

  private:
    Addr base_;
    std::uint32_t arrays_;
    std::uint64_t spacing_;
    std::uint32_t rows_, cols_;
    std::uint64_t rowStride_;
    std::uint32_t elem_;
    std::uint64_t pos_ = 0;
};

/** Zipf-popular blocks over a region: models hot/cold data structures. */
class ZipfStream : public AccessStream
{
  public:
    ZipfStream(Addr base, std::uint64_t blocks, std::uint32_t block_bytes,
               double alpha, std::uint64_t seed);

    MemAccess next() override;

  private:
    Addr base_;
    std::uint32_t blockBytes_;
    ZipfSampler sampler_;
    Rng rng_;
    /** Shuffled block order so rank 0 is not always the lowest address. */
    std::vector<std::uint32_t> perm_;
};

/**
 * Dependent pointer chase over a fixed random permutation of nodes.
 * The permutation is a single cycle, so the walk covers every node.
 */
class PointerChaseStream : public AccessStream
{
  public:
    PointerChaseStream(Addr base, std::uint64_t nodes,
                       std::uint32_t node_bytes, std::uint64_t seed);

    MemAccess next() override;

  private:
    Addr base_;
    std::uint32_t nodeBytes_;
    std::vector<std::uint32_t> nextNode_;
    std::uint32_t cur_ = 0;
};

/** Call-stack locality: random-walk depth, touching the current frame. */
class StackStream : public AccessStream
{
  public:
    StackStream(Addr stack_top, std::uint32_t max_depth,
                std::uint32_t frame_bytes, std::uint64_t seed);

    MemAccess next() override;

  private:
    Addr top_;
    std::uint32_t maxDepth_;
    std::uint32_t frameBytes_;
    Rng rng_;
    std::uint32_t depth_ = 0;
};

/** Weighted per-access interleaving of child streams. */
class InterleaveStream : public AccessStream
{
  public:
    InterleaveStream(std::vector<AccessStreamPtr> children,
                     std::vector<double> weights, std::uint64_t seed);

    MemAccess next() override;

  private:
    std::vector<AccessStreamPtr> children_;
    std::vector<double> cdf_;
    Rng rng_;
};

/** Converts a fraction of child reads into writes. */
class WriteMixStream : public AccessStream
{
  public:
    WriteMixStream(AccessStreamPtr child, double write_fraction,
                   std::uint64_t seed);

    MemAccess next() override;

  private:
    AccessStreamPtr child_;
    double writeFraction_;
    Rng rng_;
};

/** Replays a fixed vector of accesses, cycling at the end. */
class VectorStream : public AccessStream
{
  public:
    explicit VectorStream(std::vector<MemAccess> accesses);

    MemAccess next() override;

  private:
    std::vector<MemAccess> accesses_;
    std::size_t pos_ = 0;
};

} // namespace bsim

#endif // BSIM_WORKLOAD_GENERATORS_HH
