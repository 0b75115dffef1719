#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace bsim {

CacheHierarchy::CacheHierarchy(const HierarchyParams &params)
    : params_(params)
{
    mem_ = std::make_unique<MainMemory>(params.memLatency);
    l2_ = std::make_unique<SetAssocCache>(
        "L2",
        CacheGeometry(params.l2SizeBytes, params.l2LineBytes,
                      params.l2Ways),
        params.l2HitLatency, mem_.get(), ReplPolicyKind::LRU);
}

void
CacheHierarchy::setL1I(std::unique_ptr<BaseCache> l1i)
{
    bsim_assert(l1i != nullptr);
    l1i_ = std::move(l1i);
    l1i_->setNextLevel(l2_.get());
}

void
CacheHierarchy::setL1D(std::unique_ptr<BaseCache> l1d)
{
    bsim_assert(l1d != nullptr);
    l1d_ = std::move(l1d);
    l1d_->setNextLevel(l2_.get());
}

AccessOutcome
CacheHierarchy::fetch(Addr addr)
{
    bsim_assert(l1i_ != nullptr, "no L1I configured");
    return l1i_->access({addr, AccessType::Fetch});
}

AccessOutcome
CacheHierarchy::load(Addr addr)
{
    bsim_assert(l1d_ != nullptr, "no L1D configured");
    return l1d_->access({addr, AccessType::Read});
}

AccessOutcome
CacheHierarchy::store(Addr addr)
{
    bsim_assert(l1d_ != nullptr, "no L1D configured");
    return l1d_->access({addr, AccessType::Write});
}

void
CacheHierarchy::reset()
{
    if (l1i_)
        l1i_->reset();
    if (l1d_)
        l1d_->reset();
    l2_->reset();
    mem_->reset();
}

} // namespace bsim
