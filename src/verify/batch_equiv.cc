#include "verify/batch_equiv.hh"

#include <algorithm>
#include <functional>
#include <span>

#include "bcache/bcache.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strings.hh"
#include "verify/residency_model.hh"
#include "verify/tracking_memory.hh"

namespace bsim {

namespace {

constexpr std::size_t kMaxMismatches = 8;

/** The most records the twin loop asks its source for at once. */
constexpr std::size_t kSpanLen = 4096;

void
note(VerifyResult &res, std::string what)
{
    if (res.problems.size() < kMaxMismatches)
        res.problems.push_back(std::move(what));
}

void
compareStats(VerifyResult &res, const CacheStats &pa,
             const CacheStats &ba)
{
    const struct
    {
        const char *name;
        std::uint64_t a, b;
    } fields[] = {
        {"accesses", pa.accesses, ba.accesses},
        {"hits", pa.hits, ba.hits},
        {"misses", pa.misses, ba.misses},
        {"readAccesses", pa.readAccesses(), ba.readAccesses()},
        {"readMisses", pa.readMisses(), ba.readMisses()},
        {"writeAccesses", pa.writeAccesses(), ba.writeAccesses()},
        {"writeMisses", pa.writeMisses(), ba.writeMisses()},
        {"fetchAccesses", pa.fetchAccesses(), ba.fetchAccesses()},
        {"fetchMisses", pa.fetchMisses(), ba.fetchMisses()},
        {"writebacks", pa.writebacks, ba.writebacks},
        {"writethroughs", pa.writethroughs, ba.writethroughs},
        {"refills", pa.refills, ba.refills},
    };
    for (const auto &f : fields)
        if (f.a != f.b)
            note(res, strprintf("CacheStats.%s: per-access %llu vs "
                                "batched %llu",
                                f.name, (unsigned long long)f.a,
                                (unsigned long long)f.b));
}

std::string
sideString(const SideCounters &counters)
{
    std::vector<std::string> parts;
    for (const SideCounter &c : counters)
        parts.push_back(c.name + "=" + std::to_string(c.value));
    return "{" + join(parts, ", ") + "}";
}

/** Per-line usage counters (the Table 7 inputs), line by line. */
void
compareUsage(VerifyResult &res, std::span<const SetUsage> ua,
             std::span<const SetUsage> ub)
{
    if (ua.size() != ub.size()) {
        note(res, strprintf("usage lines: per-access %zu vs batched %zu",
                            ua.size(), ub.size()));
        return;
    }
    for (std::size_t l = 0; l < ua.size(); ++l) {
        if (ua[l] == ub[l])
            continue;
        note(res, strprintf("line %zu usage (hits,misses): per-access "
                            "{%llu,%llu} vs batched {%llu,%llu}",
                            l, (unsigned long long)ua[l].hits,
                            (unsigned long long)ua[l].misses,
                            (unsigned long long)ub[l].hits,
                            (unsigned long long)ub[l].misses));
        break;
    }
}

void
compareEvents(VerifyResult &res, const std::vector<MemEvent> &ea,
              const std::vector<MemEvent> &eb)
{
    if (ea.size() != eb.size())
        note(res, strprintf("memory event count: per-access %zu vs "
                            "batched %zu",
                            ea.size(), eb.size()));
    const std::size_t n = std::min(ea.size(), eb.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (ea[i] == eb[i])
            continue;
        note(res, strprintf("memory event %zu: per-access %s(0x%llx) vs "
                            "batched %s(0x%llx)",
                            i, memEventKindName(ea[i].kind),
                            (unsigned long long)ea[i].addr,
                            memEventKindName(eb[i].kind),
                            (unsigned long long)eb[i].addr));
        break; // later events are noise once the sequences skew
    }
}

/**
 * Checks of one variant that have no generic form; each may be null.
 */
struct TwinHooks
{
    /** After every batch. */
    std::function<void(VerifyResult &)> afterBatch;
    /** Per sampled address; false ends the sample. */
    std::function<bool(VerifyResult &, Addr)> atSample;
    /** After the run. */
    std::function<void(VerifyResult &)> atEnd;
};

/**
 * The twin loop: @p per_access and @p batched were built from
 * @p config onto @p mem_a and @p mem_b.
 */
VerifyResult
driveTwins(const CacheConfig &config, BaseCache &per_access,
           TrackingMemory &mem_a, BaseCache &batched,
           TrackingMemory &mem_b, const RecordSource &source,
           const TwinRun &run, const TwinHooks &hooks)
{
    bsim_assert(run.batchLen >= 1, "twin batches need at least one access");
    bsim_assert(run.addrBits >= 1 && run.addrBits < 64);
    VerifyResult res;
    const Addr addr_mask = mask(run.addrBits);

    // The functional model polices residency and write conservation on
    // the per-access twin, organisation-agnostically.
    FunctionalResidencyModel model(per_access, config.writePolicy);
    // A writeback case replays identically under runOracleCase, which
    // draws its interleaving from the same constant.
    Rng rng(run.seed ^ 0xdecafbadULL);

    std::vector<MemEvent> events_a; // ordered per-access event log
    std::vector<MemAccess> batch;
    batch.reserve(run.batchLen);
    std::vector<AccessOutcome> outs(run.batchLen);

    const auto drainInto = [&] {
        std::vector<MemEvent> ev = mem_a.drain();
        events_a.insert(events_a.end(), ev.begin(), ev.end());
        return ev;
    };

    const auto flush = [&] {
        if (batch.empty())
            return;
        batched.accessBatch({batch.data(), batch.size()}, outs.data());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const AccessOutcome o = per_access.access(batch[i]);
            if (o.hit != outs[i].hit || o.latency != outs[i].latency)
                note(res, strprintf("outcome of access 0x%llx: "
                                    "per-access (hit=%d lat=%llu) vs "
                                    "batched (hit=%d lat=%llu)",
                                    (unsigned long long)batch[i].addr,
                                    o.hit, (unsigned long long)o.latency,
                                    outs[i].hit,
                                    (unsigned long long)outs[i].latency));
            for (std::string &v :
                 model.onAccess(batch[i], o.hit, drainInto()))
                note(res, "residency: " + std::move(v));
        }
        if (hooks.afterBatch)
            hooks.afterBatch(res);
        batch.clear();
    };

    // A bounded source (a trace window) may run dry before run.accesses.
    std::span<const MemAccess> pending;
    for (std::uint64_t i = 0; i < run.accesses; ++i) {
        if (pending.empty()) {
            pending = source(static_cast<std::size_t>(
                std::min<std::uint64_t>(run.accesses - i, kSpanLen)));
            if (pending.empty())
                break;
        }
        MemAccess a = pending.front();
        pending = pending.subspan(1);
        a.addr &= addr_mask;
        if (run.writebackFraction > 0.0 &&
            rng.nextBool(run.writebackFraction)) {
            // A writeback from above lands between batches in any real
            // runner; flush so both DUTs see the same ordering.
            flush();
            per_access.writeback(a.addr);
            for (std::string &v : model.onWriteback(a.addr, drainInto()))
                note(res, "residency: " + std::move(v));
            batched.writeback(a.addr);
        } else {
            batch.push_back(a);
            if (batch.size() == run.batchLen)
                flush();
        }
        ++res.steps;
        if (res.problems.size() >= kMaxMismatches)
            break;
    }
    flush();

    compareStats(res, per_access.stats(), batched.stats());
    compareUsage(res, per_access.setUsage(), batched.setUsage());
    const SideCounters side_a = config.sideCounters(per_access);
    const SideCounters side_b = config.sideCounters(batched);
    if (side_a != side_b)
        note(res, "side counters: per-access " + sideString(side_a) +
                      " vs batched " + sideString(side_b));

    // Residency over a deterministic address sample (contains() is
    // side-effect free).
    Rng sample(run.seed ^ 0x5a5a5a5aULL);
    const Addr space = Addr{1} << run.addrBits;
    for (int s = 0; s < 4096; ++s) {
        const Addr addr = sample.nextBounded(space);
        if (per_access.contains(addr) != batched.contains(addr)) {
            note(res, strprintf("residency of 0x%llx differs",
                                (unsigned long long)addr));
            break;
        }
        if (hooks.atSample && !hooks.atSample(res, addr))
            break;
    }
    if (hooks.atEnd)
        hooks.atEnd(res);

    for (const std::string &v : model.finish())
        note(res, "conservation: " + v);
    compareEvents(res, events_a, mem_b.drain());

    res.ok = res.problems.empty();
    return res;
}

} // namespace

std::string
VerifyResult::toString() const
{
    std::string s = strprintf("%s after %llu steps",
                              ok ? "OK" : "FAILED",
                              (unsigned long long)steps);
    if (!oracleModes.empty())
        s += " (oracles: " + oracleModes + ")";
    for (const std::string &p : problems)
        s += "\n  " + p;
    return s;
}

VerifyResult
runBatchEquiv(const CacheConfig &config, AccessStream &stream,
              const TwinRun &run)
{
    std::vector<MemAccess> buf;
    return runBatchEquiv(
        config,
        [&](std::size_t n) {
            buf.resize(n);
            stream.nextBatch(buf.data(), n);
            return std::span<const MemAccess>(buf);
        },
        run);
}

VerifyResult
runBatchEquiv(const CacheConfig &config, const RecordSource &source,
              const TwinRun &run)
{
    TrackingMemory mem_a, mem_b;
    if (config.kind != CacheKind::BCache) {
        const std::unique_ptr<BaseCache> per_access =
            config.build("equiv-per-access", /*hit_latency=*/1, &mem_a);
        const std::unique_ptr<BaseCache> batched =
            config.build("equiv-batched", /*hit_latency=*/1, &mem_b);
        return driveTwins(config, *per_access, mem_a, *batched, mem_b,
                          source, run, {});
    }

    const BCacheParams params = seededBCacheParams(config, run.seed);
    BCache per_access("equiv-per-access", params, /*hit_latency=*/1,
                      &mem_a);
    BCache batched("equiv-batched", params, /*hit_latency=*/1, &mem_b);

    TwinHooks hooks;
    hooks.afterBatch = [&](VerifyResult &res) {
        if (per_access.lastOutcome() != batched.lastOutcome())
            note(res, strprintf("lastOutcome after batch: per-access %d "
                                "vs batched %d",
                                (int)per_access.lastOutcome(),
                                (int)batched.lastOutcome()));
    };
    hooks.atSample = [&](VerifyResult &res, Addr addr) {
        if (per_access.classify(addr) == batched.classify(addr))
            return true;
        note(res, strprintf("classify(0x%llx): per-access %d vs "
                            "batched %d",
                            (unsigned long long)addr,
                            (int)per_access.classify(addr),
                            (int)batched.classify(addr)));
        return false;
    };
    hooks.atEnd = [&](VerifyResult &res) {
        if (per_access.validLines() != batched.validLines())
            note(res, strprintf("validLines: per-access %zu vs batched "
                                "%zu",
                                per_access.validLines(),
                                batched.validLines()));
    };
    return driveTwins(config, per_access, mem_a, batched, mem_b, source,
                      run, hooks);
}

BCacheParams
seededBCacheParams(const CacheConfig &config, std::uint64_t seed)
{
    BCacheParams p = config.bcacheParams();
    p.replSeed = seed | 1;
    return p;
}

} // namespace bsim
