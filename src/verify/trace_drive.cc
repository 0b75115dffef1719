#include "verify/trace_drive.hh"

#include <algorithm>

#include "common/bits.hh"

namespace bsim {

namespace {

constexpr std::size_t kDriveSpan = 4096;

} // namespace

VerifyResult
runOracleOnTrace(const std::string &path, const CacheConfig &config,
                 const OracleOptions &opts, const TraceShard &shard,
                 std::uint64_t max_accesses)
{
    TraceReaderPtr reader = openTraceReader(path, shard);

    TrackingMemory mem;
    BCache dut("trace-dut", config.bcacheParams(), /*hit_latency=*/1,
               &mem);
    OracleChecker checker(dut, mem, opts);
    const Addr addr_mask = mask(opts.addrBits);

    VerifyResult res;
    res.oracleModes = checker.oracleModes();
    std::uint64_t left =
        max_accesses ? max_accesses : ~std::uint64_t{0};
    bool diverged = false;
    while (left > 0 && !diverged) {
        const std::span<const MemAccess> s =
            reader->nextSpan(static_cast<std::size_t>(
                std::min<std::uint64_t>(left, kDriveSpan)));
        if (s.empty())
            break;
        for (MemAccess a : s) {
            a.addr &= addr_mask;
            ++res.steps;
            if (!checker.onAccess(a)) {
                // Keep the report focused on the first divergence.
                diverged = true;
                break;
            }
        }
        left -= s.size();
    }
    checker.finish();
    for (const Divergence &d : checker.divergences())
        res.problems.push_back(d.toString());
    res.ok = checker.ok();
    return res;
}

VerifyResult
runBatchEquivOnTrace(const std::string &path, const CacheConfig &config,
                     unsigned addr_bits, std::size_t batch_len,
                     const TraceShard &shard, std::uint64_t max_accesses)
{
    TraceReaderPtr reader = openTraceReader(path, shard);
    return runBatchEquiv(
        config, [&](std::size_t n) { return reader->nextSpan(n); },
        {.accesses = max_accesses ? max_accesses : ~std::uint64_t{0},
         .batchLen = batch_len,
         .addrBits = addr_bits});
}

} // namespace bsim
