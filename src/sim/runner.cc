#include "sim/runner.hh"

#include <algorithm>

#include "common/strings.hh"
#include "power/cacti_lite.hh"
#include "sim/session.hh"

namespace bsim {

std::uint64_t
defaultAccesses(std::uint64_t fallback)
{
    return envCount("BSIM_ACCESSES", fallback);
}

std::uint64_t
defaultUops(std::uint64_t fallback)
{
    return envCount("BSIM_UOPS", fallback);
}

std::unique_ptr<StatsObserver>
attachObserver(BaseCache &cache, const ObserverConfig &observe)
{
    if (!observe.enabled)
        return nullptr;
    auto obs =
        std::make_unique<StatsObserver>(cache.setUsage().size(), observe);
    cache.setCacheObserver(obs.get());
    return obs;
}

std::optional<ObserverReport>
harvestObserver(const StatsObserver *obs, BaseCache &cache)
{
    if (!obs)
        return std::nullopt;
    ObserverReport rep = obs->report();
    rep.perSet.assign(cache.setUsage().begin(), cache.setUsage().end());
    rep.writebacks = cache.stats().writebacks;
    if (auto *bc = dynamic_cast<BCache *>(&cache))
        rep.pdOccupancy = bc->groupOccupancy();
    return rep;
}

MissRateResult
runMissRateOn(AccessStream &stream, const CacheConfig &config,
              std::uint64_t accesses, const std::string &workload_label,
              const ObserverConfig &observe)
{
    return Session(stream, {config}, accesses, workload_label, observe)
        .run();
}

MissRateResult
runMissRate(const std::string &workload_name, StreamSide side,
            const CacheConfig &config, std::uint64_t accesses,
            std::uint64_t seed, const ObserverConfig &observe)
{
    SpecWorkload wl = makeSpecWorkload(workload_name, seed);
    AccessStream &stream =
        side == StreamSide::Inst ? *wl.inst : *wl.data;
    return runMissRateOn(stream, config, accesses, workload_name,
                         observe);
}

namespace {

/** One config's models while a runTimedEach() run steps them. */
struct TimedMember
{
    std::unique_ptr<CacheHierarchy> hier; ///< null once failed
    std::unique_ptr<OooCore> core;
    TimedDutRun run;

    /** Run @p step on this member's clock; a throw drops its models. */
    template <class Step>
    void
    timed(Step &&step)
    {
        if (!run.timed(step)) {
            core.reset();
            hier.reset();
        }
    }
};

/** The TimedResult of a finished run over @p hier. */
TimedResult
timedResultOf(const std::string &workload_name, const CacheConfig &config,
              const CacheHierarchy &hier, const CpuResult &cpu)
{
    TimedResult r;
    r.workload = workload_name;
    r.config = config.label;
    r.cpu = cpu;
    r.l1i = hier.l1i().stats();
    r.l1d = hier.l1d().stats();
    r.l2 = hier.l2().stats();

    ActivityCounts &a = r.activity;
    a.l1iAccesses = r.l1i.accesses;
    a.l1iMisses = r.l1i.misses;
    a.l1dAccesses = r.l1d.accesses;
    a.l1dMisses = r.l1d.misses;
    a.l2Accesses = r.l2.accesses + r.l1i.writebacks + r.l1d.writebacks;
    a.l2Misses = r.l2.misses;
    a.offchipAccesses = hier.memory().totalAccesses();
    a.cycles = cpu.cycles;
    for (const BaseCache *l1 : {&hier.l1i(), &hier.l1d()}) {
        const SideCounters side = config.sideCounters(*l1);
        a.victimProbes += findSideCounter(side, "victimProbes").value_or(0);
        a.pdPredictedMisses += findSideCounter(side, "pdMiss").value_or(0);
    }
    return r;
}

} // namespace

std::vector<TimedDutRun>
runTimedEach(const std::string &workload_name,
             const std::vector<CacheConfig> &configs, std::uint64_t uops,
             std::uint64_t seed, const HierarchyParams &hierarchy_params)
{
    std::vector<TimedMember> members(configs.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
        TimedMember &m = members[i];
        m.timed([&] {
            m.hier = std::make_unique<CacheHierarchy>(hierarchy_params);
            m.hier->setL1I(configs[i].build("L1I", 1, nullptr));
            m.hier->setL1D(configs[i].build("L1D", 1, nullptr));
            m.core = std::make_unique<OooCore>(CoreParams{}, *m.hier);
        });
    }
    auto alive = [&] {
        return std::any_of(
            members.begin(), members.end(),
            [](const TimedMember &m) { return m.core != nullptr; });
    };

    SyntheticProgram program(makeSpecWorkload(workload_name, seed),
                             seed ^ 0xc0ffee);
    std::vector<MicroOp> batch(OooCore::kBatchLen);
    for (std::uint64_t left = uops; left > 0 && alive();) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, OooCore::kBatchLen));
        for (std::size_t i = 0; i < n; ++i)
            batch[i] = program.next();
        const std::span<const MicroOp> ops(batch.data(), n);
        for (TimedMember &m : members)
            if (m.core)
                m.timed([&] { m.core->step(ops); });
        left -= n;
    }

    std::vector<TimedDutRun> runs;
    runs.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
        TimedMember &m = members[i];
        if (m.core)
            m.timed([&] {
                m.run.result = timedResultOf(workload_name, configs[i],
                                             *m.hier, m.core->result());
            });
        runs.push_back(std::move(m.run));
    }
    return runs;
}

TimedResult
runTimed(const std::string &workload_name, const CacheConfig &config,
         std::uint64_t uops, std::uint64_t seed,
         const HierarchyParams &hierarchy_params)
{
    TimedDutRun only = std::move(
        runTimedEach(workload_name, {config}, uops, seed,
                     hierarchy_params)
            .front());
    if (only.error)
        std::rethrow_exception(only.error);
    return std::move(*only.result);
}

EnergyRates
energyRatesFor(const CacheConfig &config, PicoJoules static_per_cycle)
{
    // The baseline L1 anchors the off-chip energy (100x, Section 6.2).
    CacheOrg base_org;
    base_org.sizeBytes = config.sizeBytes;
    base_org.lineBytes = config.lineBytes;
    base_org.ways = 1;
    const PicoJoules base_l1 =
        CactiLite::conventional(base_org).total();

    EnergyRates r = cacheSpecEntryFor(config.kind).energy(config);

    CacheOrg l2_org;
    l2_org.sizeBytes = kTable4Hierarchy.l2SizeBytes;
    l2_org.lineBytes = kTable4Hierarchy.l2LineBytes;
    l2_org.ways = kTable4Hierarchy.l2Ways;
    l2_org.dataSubarrays = 16;
    l2_org.tagSubarrays = 16;
    r.l2Access = CactiLite::conventional(l2_org).total();
    r.l2Refill = 0.5 * r.l2Access;
    r.l1Refill = 0.5 * r.l1dAccess;
    r.offchipAccess = 100.0 * base_l1;
    r.staticPerCycle = static_per_cycle;
    return r;
}

} // namespace bsim
