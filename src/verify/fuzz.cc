#include "verify/fuzz.hh"

#include <algorithm>
#include <memory>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strings.hh"
#include "sim/cache_spec.hh"
#include "workload/generators.hh"

namespace bsim {

namespace {

/** Clamp a child stream's addresses into the fuzzed address space. */
class MaskedStream : public AccessStream
{
  public:
    MaskedStream(AccessStreamPtr child, unsigned addr_bits)
        : child_(std::move(child)), mask_(mask(addr_bits))
    {
    }

    MemAccess next() override
    {
        MemAccess a = child_->next();
        a.addr &= mask_;
        return a;
    }

    void reset() override { child_->reset(); }
    std::string name() const override
    {
        return "masked(" + child_->name() + ")";
    }

  private:
    AccessStreamPtr child_;
    Addr mask_;
};

/** One conflict/locality primitive scaled to the sampled cache. */
AccessStreamPtr
makePrimitive(Rng &rng, const FuzzSpec &spec)
{
    const std::uint64_t size = spec.params.sizeBytes;
    const std::uint32_t line = spec.params.lineBytes;
    const Addr space = Addr{1} << spec.addrBits;
    const Addr base = rng.nextBounded(space / 2);

    switch (rng.nextBounded(6)) {
      case 0:
        // Streaming sweep of 0.5x..8x the cache.
        return std::make_unique<SequentialStream>(
            base, size / 2 + rng.nextBounded(8 * size),
            line / 4);
      case 1:
        // The canonical same-set conflict thrash: stride = cache size.
        return std::make_unique<StridedConflictStream>(
            base, size << rng.nextBounded(3),
            2 + (std::uint32_t)rng.nextBounded(31), line / 8, 8);
      case 2:
        return std::make_unique<LoopNestStream>(
            base, 2 + (std::uint32_t)rng.nextBounded(3), size,
            4 + (std::uint32_t)rng.nextBounded(12),
            4 + (std::uint32_t)rng.nextBounded(28), 8 * line, 8);
      case 3:
        return std::make_unique<ZipfStream>(
            base, 2 * size / line, line,
            0.7 + 0.6 * rng.nextDouble(), rng.next());
      case 4:
        return std::make_unique<PointerChaseStream>(
            base, 1 + 4 * size / line, line, rng.next());
      default:
        return std::make_unique<StackStream>(
            base + size, 8 + (std::uint32_t)rng.nextBounded(56),
            2 * line, rng.next());
    }
}

} // namespace

std::string
FuzzSpec::toString() const
{
    return strprintf("seed=0x%llx addrBits=%u wbFrac=%.3f %s",
                     (unsigned long long)seed, addrBits,
                     writebackFraction, params.toString().c_str());
}

std::string
FuzzResult::toString() const
{
    std::string s = strprintf("%s after %llu steps (oracles: %s)",
                              ok ? "OK" : "FAILED",
                              (unsigned long long)steps,
                              oracleModes.c_str());
    for (const Divergence &d : divergences)
        s += "\n  " + d.toString();
    return s;
}

std::string
FuzzSpec::cacheSpec() const
{
    CacheConfig c = CacheConfig::bcache(params.sizeBytes, params.mf,
                                        params.bas, params.repl,
                                        params.lineBytes);
    c.writePolicy = params.writePolicy;
    return printCacheSpec(c);
}

FuzzSpec
randomFuzzSpec(std::uint64_t seed)
{
    Rng rng(seed);
    FuzzSpec spec;
    spec.seed = seed;

    BCacheParams &p = spec.params;
    p.lineBytes = 16u << rng.nextBounded(3);
    const unsigned oi = 3 + (unsigned)rng.nextBounded(8); // 8..1024 sets
    p.sizeBytes = std::uint64_t{p.lineBytes} << oi;
    const unsigned offset_bits = floorLog2(p.lineBytes);

    const unsigned bas_log =
        (unsigned)rng.nextBounded(std::min(oi, 4u) + 1);
    p.bas = 1u << bas_log;

    spec.addrBits = 18 + (unsigned)rng.nextBounded(9); // 18..26

    // ~20% of cases saturate the PI so the set-associative exact oracle
    // engages (BAS=1 cases exercise the direct-mapped oracle).
    if (rng.nextBool(0.2)) {
        const unsigned upper_bits = spec.addrBits - offset_bits - oi;
        p.mf = 1u << (upper_bits > bas_log ? upper_bits - bas_log : 0);
    } else {
        p.mf = 1u << rng.nextBounded(7);
    }

    constexpr ReplPolicyKind kKinds[] = {
        ReplPolicyKind::LRU, ReplPolicyKind::Random, ReplPolicyKind::FIFO,
        ReplPolicyKind::TreePLRU, ReplPolicyKind::NMRU};
    p.repl = kKinds[rng.nextBounded(5)];
    p.replSeed = rng.next() | 1;
    p.writePolicy = rng.nextBool(0.5)
                        ? WritePolicy::WriteBackAllocate
                        : WritePolicy::WriteThroughNoAllocate;

    spec.writebackFraction = rng.nextBool(0.5) ? 0.02 : 0.0;
    return spec;
}

AccessStreamPtr
makeFuzzStream(const FuzzSpec &spec)
{
    Rng rng(spec.seed ^ 0x5157ea15u);
    const std::size_t n = 1 + rng.nextBounded(3);
    std::vector<AccessStreamPtr> children;
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
        children.push_back(makePrimitive(rng, spec));
        weights.push_back(0.2 + rng.nextDouble());
    }
    AccessStreamPtr s;
    if (children.size() == 1)
        s = std::move(children.front());
    else
        s = std::make_unique<InterleaveStream>(std::move(children),
                                               std::move(weights),
                                               rng.next());
    s = std::make_unique<WriteMixStream>(std::move(s),
                                         0.5 * rng.nextDouble(),
                                         rng.next());
    return std::make_unique<MaskedStream>(std::move(s), spec.addrBits);
}

FuzzResult
runFuzzCase(const FuzzSpec &spec, std::uint64_t accesses,
            bool drive_batched)
{
    // Campaigns double as parser fuzzing: the sampled configuration's
    // printable spec must be a fixed point of print(parse(s)).
    const std::string grammar = spec.cacheSpec();
    bsim_assert(printCacheSpec(parseCacheSpec(grammar)) == grammar,
                "cache-spec grammar round-trip failed");

    TrackingMemory mem;
    BCache dut("fuzz-dut", spec.params, /*hit_latency=*/1, &mem);

    OracleOptions opts;
    opts.addrBits = spec.addrBits;
    opts.driveBatched = drive_batched;
    OracleChecker checker(dut, mem, opts);

    AccessStreamPtr stream = makeFuzzStream(spec);
    Rng rng(spec.seed ^ 0xdecafbadULL);

    FuzzResult res;
    res.oracleModes = checker.oracleModes();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const MemAccess a = stream->next();
        bool step_ok;
        if (spec.writebackFraction > 0.0 &&
            rng.nextBool(spec.writebackFraction)) {
            // A dirty victim from a hypothetical level above; reuse the
            // stream's address for plausible locality.
            step_ok = checker.onWriteback(a.addr);
        } else {
            step_ok = checker.onAccess(a);
        }
        ++res.steps;
        if (!step_ok)
            break; // keep the report focused on the first divergence
    }
    checker.finish();
    res.ok = checker.ok();
    res.divergences = checker.divergences();
    return res;
}

} // namespace bsim
