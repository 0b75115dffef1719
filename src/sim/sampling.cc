#include "sim/sampling.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace bsim {

namespace {

std::uint64_t
parseField(const std::string &spec, const std::string &field,
           const char *name)
{
    const std::optional<std::uint64_t> n = parseCount(field);
    if (!n)
        bsim_fatal("bad --sample spec '", spec, "': ", name,
                   " is not a number (want U:P[:W])");
    return *n;
}

} // namespace

std::uint64_t
SamplePlan::unitsFor(std::uint64_t records) const
{
    if (records == 0 || unitLen == 0 || period == 0)
        return 0;
    // Unit k measures [k*P, min(k*P + U, records)); the last unit starts
    // at the largest k*P < records and may be short.
    return (records - 1) / period + 1;
}

std::string
SamplePlan::toString() const
{
    return std::to_string(unitLen) + ":" + std::to_string(period) + ":" +
           std::to_string(warmup);
}

SamplePlan
parseSamplePlan(const std::string &spec)
{
    SamplePlan plan;
    const std::size_t c1 = spec.find(':');
    if (c1 == std::string::npos)
        bsim_fatal("bad --sample spec '", spec, "' (want U:P[:W])");
    const std::size_t c2 = spec.find(':', c1 + 1);
    plan.unitLen = parseField(spec, spec.substr(0, c1), "unit length U");
    const std::string p_field =
        c2 == std::string::npos ? spec.substr(c1 + 1)
                                : spec.substr(c1 + 1, c2 - c1 - 1);
    plan.period = parseField(spec, p_field, "period P");
    if (c2 != std::string::npos)
        plan.warmup = parseField(spec, spec.substr(c2 + 1), "warmup W");
    if (plan.unitLen == 0)
        bsim_fatal("bad --sample spec '", spec,
                   "': unit length U must be >= 1");
    if (plan.period < plan.unitLen)
        bsim_fatal("bad --sample spec '", spec, "': period P (",
                   plan.period, ") must be >= unit length U (",
                   plan.unitLen, ") or units would overlap");
    return plan;
}

std::optional<SamplePlan>
consumeSampleFlag(int &argc, char **argv)
{
    std::optional<SamplePlan> plan;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
        const std::string arg = argv[r];
        std::string value;
        if (arg == "--sample") {
            if (r + 1 >= argc)
                bsim_fatal("--sample requires a U:P[:W] value");
            value = argv[++r];
        } else if (arg.rfind("--sample=", 0) == 0) {
            value = arg.substr(9);
        } else {
            argv[w++] = argv[r];
            continue;
        }
        plan = parseSamplePlan(value);
    }
    argc = w;
    argv[argc] = nullptr;
    if (!plan) {
        if (const char *v = std::getenv("BSIM_SAMPLE"); v && *v)
            plan = parseSamplePlan(v);
    }
    return plan;
}

std::uint64_t
SampledStats::sampledRecords() const
{
    std::uint64_t n = 0;
    for (const SampleUnitSums &u : units)
        n += u.accesses;
    return n;
}

SampleEstimate
SampledStats::estimate() const
{
    // Always rebuilt from the integer per-unit sums in stored (unit)
    // order: floating-point accumulation order is fixed, so any way of
    // producing the same unit sums yields the same estimate bits.
    StratifiedEstimator est;
    est.setPopulation(records);
    for (const SampleUnitSums &u : units)
        est.addUnit(u.accesses, u.misses);
    return est.estimate();
}

SampledStats &
SampledStats::operator+=(const SampledStats &other)
{
    if (units.empty()) {
        plan = other.plan;
        records = other.records;
    } else if (!other.units.empty() &&
               other.units.front().unit <= units.back().unit) {
        // Shards own disjoint ascending unit ranges and are merged in
        // shard order; anything else breaks the bit-identity contract.
        bsim_fatal("sampled-stats merge out of unit order (unit ",
                   other.units.front().unit, " after unit ",
                   units.back().unit, ")");
    }
    units.insert(units.end(), other.units.begin(), other.units.end());
    return *this;
}

} // namespace bsim
