#include "verify/campaign.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strings.hh"
#include "verify/oracle_checker.hh"
#include "workload/generators.hh"

namespace bsim {

namespace {

// ---- samplers ----

/** 2^(lo..hi), uniformly over the exponent. */
std::uint64_t
pow2(Rng &rng, unsigned lo, unsigned hi)
{
    return std::uint64_t{1} << (lo + rng.nextBounded(hi - lo + 1));
}

const char *
replToken(Rng &rng)
{
    static const char *const kRepl[] = {"lru", "random", "fifo", "plru",
                                        "nmru"};
    return kRepl[rng.nextBounded(5)];
}

const char *
wpToken(Rng &rng)
{
    return rng.nextBool(0.5) ? "wb" : "wt";
}

/** A 2/4/8-way array of 4..256 sets: `<size>,<N>w`. */
std::string
waysAndSize(Rng &rng, std::uint32_t line)
{
    const std::uint64_t ways = pow2(rng, 1, 3);
    const std::uint64_t size = line * ways * pow2(rng, 2, 8);
    return strprintf("%llu,%lluw", (unsigned long long)size,
                     (unsigned long long)ways);
}

/** A direct-mapped array of 8..1024 sets. */
unsigned long long
dmSize(Rng &rng, std::uint32_t line)
{
    return line * pow2(rng, 3, 10);
}

/**
 * The bcache row. It draws from its own fresh Rng(c.seed), in its own
 * order, and sets the case's workload knobs too.
 */
std::string
bcacheSpec(VerifyCase &c)
{
    Rng rng(c.seed);
    const std::uint32_t line = 16u << rng.nextBounded(3);
    const unsigned oi = 3 + (unsigned)rng.nextBounded(8); // 8..1024 sets
    const unsigned bas_log =
        (unsigned)rng.nextBounded(std::min(oi, 4u) + 1);
    c.addrBits = 18 + (unsigned)rng.nextBounded(9); // 18..26

    // ~20% of cases saturate the PI so the set-associative exact oracle
    // engages (BAS=1 cases exercise the direct-mapped oracle).
    unsigned mf_log;
    if (rng.nextBool(0.2)) {
        const unsigned upper_bits = c.addrBits - floorLog2(line) - oi;
        mf_log = upper_bits > bas_log ? upper_bits - bas_log : 0;
    } else {
        mf_log = (unsigned)rng.nextBounded(7);
    }
    const char *repl = replToken(rng);
    rng.next(); // unused; drawn so every later draw, and case, stays put
    const char *wp = wpToken(rng);
    c.writebackFraction = rng.nextBool(0.5) ? 0.02 : 0.0;
    return strprintf("bcache:%llu,mf=%u,bas=%u,repl=%s,wp=%s,line=%u",
                     (unsigned long long)line << oi, 1u << mf_log,
                     1u << bas_log, repl, wp, line);
}

/**
 * One row per registry kind: a spec string drawn from @p rng for line
 * size @p line. A row may also retune the case's workload knobs.
 */
struct CaseSampler
{
    const char *kind;
    std::string (*sample)(Rng &rng, std::uint32_t line, VerifyCase &c);
};

const CaseSampler kSamplers[] = {
    {"dm",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         const unsigned long long size = dmSize(rng, line);
         return strprintf("dm:%llu,wp=%s,line=%u", size, wpToken(rng),
                          line);
     }},
    {"sa",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         const std::string geom = waysAndSize(rng, line);
         const char *repl = replToken(rng);
         return strprintf("sa:%s,repl=%s,wp=%s,line=%u", geom.c_str(),
                          repl, wpToken(rng), line);
     }},
    {"victim",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         const unsigned long long size = dmSize(rng, line);
         return strprintf("victim:%llu,%llue,line=%u", size,
                          (unsigned long long)pow2(rng, 0, 4), line);
     }},
    {"bcache",
     [](Rng &, std::uint32_t, VerifyCase &c) { return bcacheSpec(c); }},
    {"column",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         return strprintf("column:%llu,line=%u", dmSize(rng, line), line);
     }},
    {"skew",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         // Two skewed banks of 8..512 sets.
         return strprintf("skew:%llu,line=%u",
                          (unsigned long long)(2 * line * pow2(rng, 3, 9)),
                          line);
     }},
    {"hac",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         const std::uint64_t sub = pow2(rng, 8, 10);
         const std::uint64_t size = sub * pow2(rng, 1, 5);
         return strprintf("hac:%llu,sub=%llu,repl=%s,line=%u",
                          (unsigned long long)size,
                          (unsigned long long)sub, replToken(rng), line);
     }},
    {"xor",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         return strprintf("xor:%llu,line=%u", dmSize(rng, line), line);
     }},
    {"pad",
     [](Rng &rng, std::uint32_t line, VerifyCase &) {
         // A PAD over a low tag slice of 1..8 bits.
         const std::string geom = waysAndSize(rng, line);
         const unsigned bits = 1 + (unsigned)rng.nextBounded(8);
         return strprintf("pad:%s,bits=%u,repl=%s,line=%u", geom.c_str(),
                          bits, replToken(rng), line);
     }},
};

// ---- workload ----

/** Clamp a child stream's addresses into the case's address space. */
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

  private:
    AccessStreamPtr child_;
    Addr mask_;
};

/** One conflict/locality primitive scaled to a @p size-byte cache. */
AccessStreamPtr
makePrimitive(Rng &rng, std::uint64_t size, std::uint32_t line,
              unsigned addr_bits)
{
    const Addr space = Addr{1} << addr_bits;
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

/**
 * The case's cache. Campaigns double as parser coverage: the canonical
 * spec must be a fixed point of print(parse(s)).
 */
CacheConfig
caseConfig(const VerifyCase &c)
{
    const CacheConfig config = parseCacheSpec(c.cacheSpec);
    const std::string canon = printCacheSpec(config);
    bsim_assert(printCacheSpec(parseCacheSpec(canon)) == canon,
                "cache-spec grammar round-trip failed");
    return config;
}

} // namespace

std::string
VerifyCase::toString() const
{
    return strprintf("seed=0x%llx %s addrBits=%u wbFrac=%.3f",
                     (unsigned long long)seed, cacheSpec.c_str(), addrBits,
                     writebackFraction);
}

VerifyCase
sampleCase(const std::string &kind, std::uint64_t seed)
{
    const auto row =
        std::find_if(std::begin(kSamplers), std::end(kSamplers),
                     [&](const CaseSampler &s) { return kind == s.kind; });
    if (row == std::end(kSamplers))
        throw std::invalid_argument("no case sampler for cache kind '" +
                                    kind + "'");
    Rng rng(seed);
    VerifyCase c;
    c.seed = seed;
    const std::uint32_t line = 16u << rng.nextBounded(3);
    c.addrBits = 18 + (unsigned)rng.nextBounded(9); // 18..26
    c.writebackFraction = rng.nextBool(0.5) ? 0.02 : 0.0;
    // Samplers spell sizes in bytes; the case keeps the canonical form.
    c.cacheSpec = printCacheSpec(parseCacheSpec(row->sample(rng, line, c)));
    return c;
}

AccessStreamPtr
makeCaseStream(const VerifyCase &c)
{
    const CacheConfig config = parseCacheSpec(c.cacheSpec);
    Rng rng(c.seed ^ 0x5157ea15u);
    const std::size_t n = 1 + rng.nextBounded(3);
    std::vector<AccessStreamPtr> children;
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
        children.push_back(makePrimitive(rng, config.sizeBytes,
                                         config.lineBytes, c.addrBits));
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
    return std::make_unique<MaskedStream>(std::move(s), c.addrBits);
}

VerifyResult
runOracleCase(const VerifyCase &c, std::uint64_t accesses,
              bool drive_batched)
{
    TrackingMemory mem;
    BCache dut("verify-dut", seededBCacheParams(caseConfig(c), c.seed),
               /*hit_latency=*/1, &mem);

    OracleOptions opts;
    opts.addrBits = c.addrBits;
    opts.driveBatched = drive_batched;
    OracleChecker checker(dut, mem, opts);

    AccessStreamPtr stream = makeCaseStream(c);
    Rng rng(c.seed ^ 0xdecafbadULL);

    VerifyResult res;
    res.oracleModes = checker.oracleModes();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const MemAccess a = stream->next();
        bool step_ok;
        if (c.writebackFraction > 0.0 && rng.nextBool(c.writebackFraction)) {
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
    for (const Divergence &d : checker.divergences())
        res.problems.push_back(d.toString());
    res.ok = checker.ok();
    return res;
}

VerifyResult
runTwinCase(const VerifyCase &c, std::uint64_t accesses,
            std::size_t batch_len)
{
    const CacheConfig config = caseConfig(c);
    AccessStreamPtr stream = makeCaseStream(c);
    return runBatchEquiv(config, *stream,
                         {.accesses = accesses,
                          .batchLen = batch_len,
                          .writebackFraction = c.writebackFraction,
                          .seed = c.seed,
                          .addrBits = c.addrBits});
}

} // namespace bsim
