#include "verify/alt_fuzz.hh"

#include <vector>

#include "alt/column_assoc_cache.hh"
#include "alt/partial_match_cache.hh"
#include "alt/way_halting_cache.hh"
#include "cache/victim_cache.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strings.hh"
#include "sim/cache_spec.hh"
#include "verify/residency_model.hh"

namespace bsim {

namespace {

constexpr std::size_t kMaxMismatches = 8;

/**
 * Variant-side counters must agree between the twins just like the
 * aggregate CacheStats: they are part of the observable state the
 * batched entry point promises to reproduce.
 */
void
compareSideCounters(BatchEquivResult &res, const AltFuzzSpec &spec,
                    const BaseCache &a, const BaseCache &b)
{
    const auto check = [&](const char *name, std::uint64_t va,
                           std::uint64_t vb) {
        if (va != vb)
            equivNote(res, strprintf("%s: per-access %llu vs batched %llu",
                                     name, (unsigned long long)va,
                                     (unsigned long long)vb));
    };
    switch (spec.kind) {
      case AltKind::Victim: {
        const auto &ca = static_cast<const VictimCache &>(a);
        const auto &cb = static_cast<const VictimCache &>(b);
        check("victimHits", ca.victimHits(), cb.victimHits());
        check("victimProbes", ca.victimProbes(), cb.victimProbes());
        break;
      }
      case AltKind::ColumnAssoc: {
        const auto &ca = static_cast<const ColumnAssocCache &>(a);
        const auto &cb = static_cast<const ColumnAssocCache &>(b);
        check("firstHits", ca.firstHits(), cb.firstHits());
        check("rehashHits", ca.rehashHits(), cb.rehashHits());
        break;
      }
      case AltKind::WayHalting: {
        const auto &ca = static_cast<const WayHaltingCache &>(a);
        const auto &cb = static_cast<const WayHaltingCache &>(b);
        check("haltedWays", ca.haltedWays(), cb.haltedWays());
        check("activatedWays", ca.activatedWays(), cb.activatedWays());
        break;
      }
      case AltKind::PartialMatch: {
        const auto &ca = static_cast<const PartialMatchCache &>(a);
        const auto &cb = static_cast<const PartialMatchCache &>(b);
        check("slowHits", ca.slowHits(), cb.slowHits());
        check("padAliases", ca.padAliases(), cb.padAliases());
        break;
      }
      case AltKind::XorDm:
      case AltKind::Skewed:
      case AltKind::Hac:
        break; // no variant-side counters beyond CacheStats
    }
}

} // namespace

const char *
altKindName(AltKind k)
{
    switch (k) {
      case AltKind::Victim: return "victim";
      case AltKind::XorDm: return "xor-dm";
      case AltKind::ColumnAssoc: return "column-assoc";
      case AltKind::Skewed: return "skewed";
      case AltKind::WayHalting: return "way-halting";
      case AltKind::PartialMatch: return "partial-match";
      case AltKind::Hac: return "hac";
    }
    return "?";
}

std::string
AltFuzzSpec::toString() const
{
    std::string s = strprintf(
        "seed=0x%llx %s size=%llu line=%u ways=%zu addrBits=%u "
        "wbFrac=%.3f",
        (unsigned long long)seed, altKindName(kind),
        (unsigned long long)sizeBytes, lineBytes, ways, addrBits,
        writebackFraction);
    switch (kind) {
      case AltKind::Victim:
        s += strprintf(" victimEntries=%zu", victimEntries);
        break;
      case AltKind::WayHalting:
        s += strprintf(" haltBits=%u repl=%s", haltBits,
                       replPolicyName(repl));
        break;
      case AltKind::PartialMatch:
        s += strprintf(" partialBits=%u repl=%s", partialBits,
                       replPolicyName(repl));
        break;
      case AltKind::Hac:
        s += strprintf(" subarray=%llu repl=%s",
                       (unsigned long long)subarrayBytes,
                       replPolicyName(repl));
        break;
      default:
        break;
    }
    return s;
}

std::string
AltFuzzSpec::cacheSpec() const
{
    CacheConfig c;
    switch (kind) {
      case AltKind::Victim:
        c = CacheConfig::victim(sizeBytes, victimEntries, lineBytes);
        break;
      case AltKind::XorDm:
        c = CacheConfig::xorDm(sizeBytes, lineBytes);
        break;
      case AltKind::ColumnAssoc:
        c = CacheConfig::columnAssoc(sizeBytes, lineBytes);
        break;
      case AltKind::Skewed:
        c = CacheConfig::skewed(sizeBytes, lineBytes);
        break;
      case AltKind::WayHalting:
        return {}; // no registered spec kind
      case AltKind::PartialMatch:
        c = CacheConfig::partialMatch(sizeBytes,
                                      static_cast<std::uint32_t>(ways),
                                      partialBits, lineBytes);
        c.repl = repl;
        break;
      case AltKind::Hac:
        c = CacheConfig::hac(sizeBytes, subarrayBytes, lineBytes);
        c.repl = repl;
        break;
    }
    return printCacheSpec(c);
}

AltFuzzSpec
randomAltFuzzSpec(std::uint64_t seed)
{
    Rng rng(seed);
    AltFuzzSpec spec;
    spec.seed = seed;
    spec.kind = static_cast<AltKind>(rng.nextBounded(7));
    spec.lineBytes = 16u << rng.nextBounded(3);
    spec.addrBits = 18 + (unsigned)rng.nextBounded(9); // 18..26

    constexpr ReplPolicyKind kKinds[] = {
        ReplPolicyKind::LRU, ReplPolicyKind::Random, ReplPolicyKind::FIFO,
        ReplPolicyKind::TreePLRU, ReplPolicyKind::NMRU};
    spec.repl = kKinds[rng.nextBounded(5)];

    // Sets per row: 2^(lo..hi); each kind fixes its associativity.
    const auto setsLog = [&](unsigned lo, unsigned hi) {
        return lo + (unsigned)rng.nextBounded(hi - lo + 1);
    };

    switch (spec.kind) {
      case AltKind::Victim:
        spec.ways = 1;
        spec.sizeBytes = std::uint64_t{spec.lineBytes} << setsLog(3, 10);
        spec.victimEntries = std::size_t{1} << rng.nextBounded(5);
        break;
      case AltKind::XorDm:
      case AltKind::ColumnAssoc:
        spec.ways = 1;
        spec.sizeBytes = std::uint64_t{spec.lineBytes} << setsLog(3, 10);
        break;
      case AltKind::Skewed:
        spec.ways = 2; // two skewed banks
        spec.sizeBytes =
            (std::uint64_t{spec.lineBytes} * 2) << setsLog(3, 9);
        break;
      case AltKind::WayHalting:
      case AltKind::PartialMatch:
        spec.ways = std::size_t{2} << rng.nextBounded(3); // 2/4/8
        spec.sizeBytes =
            (std::uint64_t{spec.lineBytes} * spec.ways) << setsLog(2, 8);
        spec.haltBits = 1 + (unsigned)rng.nextBounded(8);
        spec.partialBits = 1 + (unsigned)rng.nextBounded(8);
        break;
      case AltKind::Hac:
        spec.subarrayBytes = std::uint64_t{256} << rng.nextBounded(3);
        spec.ways = spec.subarrayBytes / spec.lineBytes;
        spec.sizeBytes = spec.subarrayBytes << (1 + rng.nextBounded(5));
        break;
    }

    spec.writebackFraction = rng.nextBool(0.5) ? 0.02 : 0.0;
    return spec;
}

std::unique_ptr<BaseCache>
makeAltCache(const AltFuzzSpec &spec, std::string name, MemLevel *next)
{
    // Registered variants build through their registry entry.
    if (spec.kind != AltKind::WayHalting)
        return parseCacheSpec(spec.cacheSpec()).build(name, 1, next);
    return std::make_unique<WayHaltingCache>(
        std::move(name),
        CacheGeometry(spec.sizeBytes, spec.lineBytes, spec.ways), 1, next,
        spec.haltBits, spec.repl);
}

BatchEquivResult
runAltFuzzCase(const AltFuzzSpec &spec, std::uint64_t accesses,
               std::size_t batch_len)
{
    BatchEquivResult res;

    // Registered variants double as parser fuzzing: the printable spec
    // must be a fixed point of print(parse(s)).
    if (const std::string grammar = spec.cacheSpec(); !grammar.empty())
        bsim_assert(printCacheSpec(parseCacheSpec(grammar)) == grammar,
                    "alt cache-spec grammar round-trip failed");

    TrackingMemory mem_a, mem_b;
    const std::unique_ptr<BaseCache> per_access =
        makeAltCache(spec, "alt-per-access", &mem_a);
    const std::unique_ptr<BaseCache> batched =
        makeAltCache(spec, "alt-batched", &mem_b);

    // Every alt variant is write-back/write-allocate (the engine
    // default); the functional model polices residency and write
    // conservation on the per-access twin, organisation-agnostically.
    FunctionalResidencyModel model(*per_access,
                                   WritePolicy::WriteBackAllocate);

    // Same stream machinery as the B-Cache fuzzer: a proxy FuzzSpec
    // carries the only fields makeFuzzStream reads (geometry scale,
    // address space, seed), so alt cases sample the same workload
    // population — and the same writeback interleaving constant, so a
    // case replays identically across the two fuzzers' harnesses.
    FuzzSpec proxy;
    proxy.params.sizeBytes = spec.sizeBytes;
    proxy.params.lineBytes = spec.lineBytes;
    proxy.addrBits = spec.addrBits;
    proxy.seed = spec.seed;
    AccessStreamPtr stream = makeFuzzStream(proxy);
    Rng rng(spec.seed ^ 0xdecafbadULL);

    std::vector<MemEvent> events_a; // ordered per-access event log
    std::vector<MemAccess> batch;
    batch.reserve(batch_len);
    std::vector<AccessOutcome> outs(batch_len);

    const auto drainInto = [&] {
        std::vector<MemEvent> ev = mem_a.drain();
        events_a.insert(events_a.end(), ev.begin(), ev.end());
        return ev;
    };

    const auto flush = [&] {
        if (batch.empty())
            return;
        batched->accessBatch({batch.data(), batch.size()}, outs.data());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const AccessOutcome o = per_access->access(batch[i]);
            if (o.hit != outs[i].hit || o.latency != outs[i].latency)
                equivNote(res,
                          strprintf("outcome of access 0x%llx: "
                                    "per-access (hit=%d lat=%llu) vs "
                                    "batched (hit=%d lat=%llu)",
                                    (unsigned long long)batch[i].addr,
                                    o.hit, (unsigned long long)o.latency,
                                    outs[i].hit,
                                    (unsigned long long)outs[i].latency));
            for (std::string &v :
                 model.onAccess(batch[i], o.hit, drainInto()))
                equivNote(res, "residency: " + std::move(v));
        }
        batch.clear();
    };

    for (std::uint64_t i = 0; i < accesses; ++i) {
        const MemAccess a = stream->next();
        if (spec.writebackFraction > 0.0 &&
            rng.nextBool(spec.writebackFraction)) {
            // A writeback from above lands between batches in any real
            // runner; flush so both DUTs see the same ordering.
            flush();
            per_access->writeback(a.addr);
            for (std::string &v : model.onWriteback(a.addr, drainInto()))
                equivNote(res, "residency: " + std::move(v));
            batched->writeback(a.addr);
        } else {
            batch.push_back(a);
            if (batch.size() == batch_len)
                flush();
        }
        ++res.steps;
        if (res.mismatches.size() >= kMaxMismatches)
            break;
    }
    flush();

    equivCompareStats(res, per_access->stats(), batched->stats());
    compareSideCounters(res, spec, *per_access, *batched);

    // Residency over a deterministic address sample (contains() is
    // side-effect free); same sampling constant as runBatchEquivCase.
    Rng sample(spec.seed ^ 0x5a5a5a5aULL);
    const Addr space = Addr{1} << spec.addrBits;
    for (int s = 0; s < 4096; ++s) {
        const Addr addr = sample.nextBounded(space);
        if (per_access->contains(addr) != batched->contains(addr)) {
            equivNote(res, strprintf("residency of 0x%llx differs",
                                     (unsigned long long)addr));
            break;
        }
    }

    for (const std::string &v : model.finish())
        equivNote(res, "conservation: " + v);

    equivCompareEvents(res, events_a, mem_b.drain());

    res.ok = res.mismatches.empty();
    return res;
}

} // namespace bsim
