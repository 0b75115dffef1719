#include "bench_core.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - double(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
highestTailPercentile(std::size_t samples, std::size_t min_beyond)
{
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        // Samples strictly beyond the p-th percentile: the top
        // floor(n * (1 - p/100)) of them. Rounded so that 100 samples
        // leave exactly 10 beyond p90.
        const double beyond =
            std::floor(double(samples) * (100.0 - p) / 100.0 + 1e-9);
        if (beyond >= double(min_beyond))
            best = p;
    }
    return best;
}

Digest &
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

Digest &
Digest::add(std::string_view s)
{
    add(std::uint64_t(s.size()));
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

void
addTo(Digest &d, const bsim::CacheStats &s)
{
    using bsim::AccessType;
    d.add(s.accesses).add(s.hits).add(s.misses).add(s.writebacks);
    d.add(s.writethroughs).add(s.refills);
    for (const AccessType t :
         {AccessType::Read, AccessType::Write, AccessType::Fetch})
        d.add(s.typeAccess(t)).add(s.typeMiss(t));
}

std::uint64_t
digestMissRate(const bsim::MissRateResult &r)
{
    Digest d;
    addTo(d, r.stats);
    d.add(r.pd ? 1 : 0);
    if (r.pd)
        d.add(r.pd->pdHitCacheMiss).add(r.pd->pdMiss);
    d.add(r.victimHits);
    return d.value();
}

std::uint64_t
digestTimed(const bsim::TimedResult &r)
{
    Digest d;
    const bsim::CpuResult &c = r.cpu;
    d.add(c.uops).add(c.cycles);
    for (const std::uint64_t n : c.perClass)
        d.add(n);
    d.add(c.icacheStallCycles).add(c.loadMissCycles);
    d.add(c.mispredictCycles).add(c.mispredicts);
    addTo(d, r.l1i);
    addTo(d, r.l1d);
    addTo(d, r.l2);
    return d.value();
}

std::uint64_t
digestBytes(std::string_view bytes)
{
    return Digest().add(bytes).value();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::optional<std::map<std::string, std::vector<std::uint64_t>>>
parsePinned(const std::string &text, std::string *error)
{
    std::map<std::string, std::vector<std::uint64_t>> out;
    std::istringstream in(text);
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, index, hex, extra;
        auto fail = [&](const char *why) {
            if (error)
                *error = "line " + std::to_string(lineno) + ": " + why;
            return std::nullopt;
        };
        if (!(ls >> workload >> index >> hex) || (ls >> extra))
            return fail("want '<workload> <index> <hex digest>'");
        if (hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos)
            return fail("digest is not 16 lowercase hex digits");
        if (index.empty() ||
            index.find_first_not_of("0123456789") != std::string::npos ||
            index.size() > 9)
            return fail("bad job index");
        std::vector<std::uint64_t> &v = out[workload];
        if (std::stoul(index) != v.size())
            return fail("job indices must run 0, 1, 2, ... per workload");
        v.push_back(std::stoull(hex, nullptr, 16));
    }
    return out;
}

double
ErrorTally::errorRate() const
{
    return attempted ? double(errors()) / double(attempted) : 0.0;
}

std::vector<std::size_t>
accountRound(ErrorTally &tally,
             const std::vector<bsim::SweepOutcome> &outcomes,
             const std::vector<std::optional<std::uint64_t>> &digests,
             const std::vector<std::uint64_t> *want)
{
    for (const bsim::SweepOutcome &o : outcomes) {
        ++tally.attempted;
        tally.failed += o.ok() ? 0 : 1;
    }
    std::vector<std::size_t> bad;
    if (!want)
        return bad;
    for (std::size_t i = 0; i < digests.size(); ++i)
        if (digests[i] && (i >= want->size() || (*want)[i] != *digests[i])) {
            ++tally.mismatched;
            bad.push_back(i);
        }
    return bad;
}

const std::vector<MetricDef> &
metricTable()
{
    static const std::vector<MetricDef> table = {
        // End to end (untraced run).
        {"setup_s", "s", true},
        {"events_per_s", "1/s", true},
        {"job_p50_ms", "ms", true},
        {"job_p90_ms", "ms", true},
        {"peak_rss_mb", "MB", true},
        {"bcache_mf8_red_pct", "%", true},
        // Per layer (traced run).
        {"workload.gen.ns_per_acc", "ns", false},
        {"workload.gen.busy_frac", "frac", false},
        {"workload.trace.ns_per_rec", "ns", false},
        {"workload.trace.open_ms", "ms", false},
        {"workload.uop.ns_per_uop", "ns", false},
        {"cache.ns_per_acc.dm", "ns", false},
        {"cache.ns_per_acc.sa", "ns", false},
        {"cache.ns_per_acc.victim", "ns", false},
        {"cache.build_us", "us", false},
        {"cache.accesses", "count", false},
        {"cache.misses", "count", false},
        {"cache.miss_ratio", "frac", false},
        {"cache.writebacks", "count", false},
        {"cache.victim.hit_ratio", "frac", false},
        {"bcache.ns_per_acc", "ns", false},
        {"bcache.pd_hit_ratio", "frac", false},
        {"bcache.pd_reprograms", "count", false},
        {"observe.overhead_ns_per_acc", "ns", false},
        {"observe.harvest_ms", "ms", false},
        {"sim.report.json_ms", "ms", false},
        {"sim.report.json_bytes", "bytes", false},
        {"sim.sweep.busy_frac", "frac", false},
        {"cpu.ns_per_uop", "ns", false},
        {"cpu.ipc", "uop/cycle", false},
        {"cpu.ipc_gain_pct", "%", false},
        {"cpu.cpi.icache_stall", "cyc/uop-raw", false},
        {"cpu.cpi.load_miss", "cyc/uop-raw", false},
        {"cpu.cpi.mispredict", "cyc/uop-raw", false},
        {"mem.l2.miss_ratio", "frac", false},
        {"mem.offchip_per_kuop", "1/kuop", false},
        {"cache.l1d.writebacks_per_kuop", "1/kuop", false},
        {"bench.trace_overhead_frac", "frac", false},
    };
    return table;
}

namespace {

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validMetricUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

std::int32_t
SpanLog::open(const char *name, std::int32_t parent)
{
    Span s;
    s.name = name;
    s.job = job_;
    s.parent = parent;
    s.start = Clock::now();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanLog::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<SpanLog> &logs)
{
    std::map<std::string, SpanTotals> out;
    for (const SpanLog &log : logs) {
        const std::vector<Span> &spans = log.spans();
        std::vector<double> child(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.seconds();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanTotals &t = out[spans[i].name];
            ++t.count;
            t.seconds += spans[i].seconds();
            t.selfSeconds += spans[i].seconds() - child[i];
        }
    }
    return out;
}

std::string
spansCsv(const std::vector<SpanLog> &logs, Clock::time_point origin)
{
    auto ns = [&](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
                .count());
    };
    std::string out = "job,index,parent,name,start_ns,end_ns\n";
    char buf[160];
    for (const SpanLog &log : logs)
        for (std::size_t i = 0; i < log.spans().size(); ++i) {
            const Span &s = log.spans()[i];
            std::snprintf(buf, sizeof buf, "%u,%zu,%d,%s,%lld,%lld\n",
                          s.job, i, s.parent, s.name, ns(s.start),
                          ns(s.end));
            out += buf;
        }
    return out;
}

} // namespace perfbench
