#include "verify/twin_fuzz.hh"

#include <stdexcept>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strings.hh"

namespace bsim {

namespace {

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

/** A way filter over a low tag slice (pad:, halt:): 1..8 slice bits. */
std::string
tagSliceSpec(const char *kind, Rng &rng, std::uint32_t line)
{
    const std::string geom = waysAndSize(rng, line);
    const unsigned bits = 1 + (unsigned)rng.nextBounded(8);
    return strprintf("%s:%s,bits=%u,repl=%s,line=%u", kind, geom.c_str(),
                     bits, replToken(rng), line);
}

/**
 * One row per registry kind: a spec string drawn from @p rng for line
 * size @p line. A row may also retune the case's workload knobs.
 */
struct TwinSampler
{
    const char *kind;
    std::string (*sample)(Rng &rng, std::uint32_t line, TwinCase &c);
};

const TwinSampler kSamplers[] = {
    {"dm",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         const unsigned long long size = dmSize(rng, line);
         return strprintf("dm:%llu,wp=%s,line=%u", size, wpToken(rng),
                          line);
     }},
    {"sa",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         const std::string geom = waysAndSize(rng, line);
         const char *repl = replToken(rng);
         return strprintf("sa:%s,repl=%s,wp=%s,line=%u", geom.c_str(),
                          repl, wpToken(rng), line);
     }},
    {"victim",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         const unsigned long long size = dmSize(rng, line);
         return strprintf("victim:%llu,%llue,line=%u", size,
                          (unsigned long long)pow2(rng, 0, 4), line);
     }},
    {"bcache",
     [](Rng &, std::uint32_t, TwinCase &c) {
         // The B-Cache fuzzer's own sampler, workload knobs included.
         const FuzzSpec f = randomFuzzSpec(c.seed);
         c.addrBits = f.addrBits;
         c.writebackFraction = f.writebackFraction;
         return f.cacheSpec();
     }},
    {"column",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         return strprintf("column:%llu,line=%u", dmSize(rng, line), line);
     }},
    {"skew",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         // Two skewed banks of 8..512 sets.
         return strprintf("skew:%llu,line=%u",
                          (unsigned long long)(2 * line * pow2(rng, 3, 9)),
                          line);
     }},
    {"hac",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         const std::uint64_t sub = pow2(rng, 8, 10);
         const std::uint64_t size = sub * pow2(rng, 1, 5);
         return strprintf("hac:%llu,sub=%llu,repl=%s,line=%u",
                          (unsigned long long)size,
                          (unsigned long long)sub, replToken(rng), line);
     }},
    {"xor",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         return strprintf("xor:%llu,line=%u", dmSize(rng, line), line);
     }},
    {"pad",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         return tagSliceSpec("pad", rng, line);
     }},
    {"halt",
     [](Rng &rng, std::uint32_t line, TwinCase &) {
         return tagSliceSpec("halt", rng, line);
     }},
};

const TwinSampler *
findSampler(const std::string &kind)
{
    for (const TwinSampler &s : kSamplers)
        if (kind == s.kind)
            return &s;
    return nullptr;
}

} // namespace

std::string
TwinCase::toString() const
{
    return strprintf("seed=0x%llx %s addrBits=%u wbFrac=%.3f",
                     (unsigned long long)seed, cacheSpec.c_str(), addrBits,
                     writebackFraction);
}

TwinCase
sampleTwinCase(const std::string &kind, std::uint64_t seed)
{
    const TwinSampler *sampler = findSampler(kind);
    if (!sampler)
        throw std::invalid_argument("no twin sampler for cache kind '" +
                                    kind + "'");
    Rng rng(seed);
    TwinCase c;
    c.seed = seed;
    const std::uint32_t line = 16u << rng.nextBounded(3);
    c.addrBits = 18 + (unsigned)rng.nextBounded(9); // 18..26
    c.writebackFraction = rng.nextBool(0.5) ? 0.02 : 0.0;
    // Samplers spell sizes in bytes; the case keeps the canonical form.
    c.cacheSpec =
        printCacheSpec(parseCacheSpec(sampler->sample(rng, line, c)));
    return c;
}

BatchEquivResult
runTwinCase(const TwinCase &c, std::uint64_t accesses,
            std::size_t batch_len)
{
    const CacheConfig config = parseCacheSpec(c.cacheSpec);
    bsim_assert(printCacheSpec(config) == c.cacheSpec,
                "cache-spec grammar round-trip failed");

    // The B-Cache fuzzer's workload population: a proxy FuzzSpec carries
    // the only fields makeFuzzStream reads (geometry scale, address
    // space, seed).
    FuzzSpec proxy;
    proxy.params.sizeBytes = config.sizeBytes;
    proxy.params.lineBytes = config.lineBytes;
    proxy.addrBits = c.addrBits;
    proxy.seed = c.seed;
    AccessStreamPtr stream = makeFuzzStream(proxy);

    return runBatchEquiv(config, *stream,
                         {.accesses = accesses,
                          .batchLen = batch_len,
                          .writebackFraction = c.writebackFraction,
                          .seed = c.seed,
                          .addrBits = c.addrBits});
}

} // namespace bsim
