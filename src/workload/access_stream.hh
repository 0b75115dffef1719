/**
 * @file
 * AccessStream: the interface every synthetic address generator
 * implements. Streams are deterministic: two streams constructed
 * with the same parameters and seed produce identical sequences.
 */

#ifndef BSIM_WORKLOAD_ACCESS_STREAM_HH
#define BSIM_WORKLOAD_ACCESS_STREAM_HH

#include <memory>
#include <vector>

#include "mem/access.hh"

namespace bsim {

/**
 * An unbounded, single-pass source of memory accesses. To replay a
 * sequence, build a second stream with the same parameters and seed.
 */
class AccessStream
{
  public:
    virtual ~AccessStream() = default;

    /** Produce the next access. */
    virtual MemAccess next() = 0;

    /**
     * Produce the next @p n accesses into @p dst — exactly the sequence
     * n calls to next() would yield. The default loops; generators with
     * cheap per-element state may override with a tighter loop. Paired
     * with MemLevel::accessBatch by the experiment runners.
     */
    virtual void
    nextBatch(MemAccess *dst, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = next();
    }
};

using AccessStreamPtr = std::unique_ptr<AccessStream>;

/** Drain @p n accesses into a vector (testing / trace capture helper). */
std::vector<MemAccess> drain(AccessStream &stream, std::size_t n);

} // namespace bsim

#endif // BSIM_WORKLOAD_ACCESS_STREAM_HH
