#include "observe/export.hh"

#include <initializer_list>

#include "common/strings.hh"

namespace bsim {

void
writeJson(JsonWriter &j, const ObserverReport &r)
{
    j.beginObject();

    j.key("perSet").beginObject();
    j.kv("lines", std::uint64_t(r.perSet.size()));
    j.key("accesses").beginArray();
    for (const auto &u : r.perSet)
        j.value(u.accesses());
    j.endArray();
    j.key("hits").beginArray();
    for (const auto &u : r.perSet)
        j.value(u.hits);
    j.endArray();
    j.key("misses").beginArray();
    for (const auto &u : r.perSet)
        j.value(u.misses);
    j.endArray();
    j.key("installs").beginArray();
    for (std::uint64_t n : r.installs)
        j.value(n);
    j.endArray();
    j.endObject();

    const BalanceMetrics m = r.balanceMetrics();
    j.key("balanceMetrics").beginObject();
    j.kv("maxRefs", m.maxRefs);
    j.kv("meanRefs", m.meanRefs);
    j.kv("maxOverMean", m.maxOverMean);
    j.kv("cov", m.cov);
    j.kv("gini", m.gini);
    j.endObject();

    j.kv("writebacks", r.writebacks);

    if (r.intervalLen != 0) {
        j.key("intervals").beginObject();
        j.kv("length", r.intervalLen);
        j.key("samples").beginArray();
        for (const auto &s : r.intervals) {
            j.beginObject();
            j.kv("accesses", s.accesses);
            j.kv("misses", s.misses);
            j.kv("writebacks", s.writebacks);
            j.kv("pdReprograms", s.pdReprograms);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }

    // Decoder telemetry only exists for B-Cache runs (the runner
    // snapshots occupancy there); keep the section out entirely for
    // other variants so consumers can key off its presence.
    if (!r.pdOccupancy.empty() || r.pdReprograms != 0) {
        j.key("pd").beginObject();
        j.kv("reprograms", r.pdReprograms);
        j.key("reprogramsPerGroup").beginArray();
        for (std::uint64_t n : r.pdReprogramsPerGroup)
            j.value(n);
        j.endArray();
        j.key("occupancyPerGroup").beginArray();
        for (std::uint32_t n : r.pdOccupancy)
            j.value(std::uint64_t(n));
        j.endArray();
        j.endObject();
    }

    j.endObject();
}

namespace {

/** Append one CSV row of unsigned fields, newline-terminated. */
void
appendCsvRow(std::string &out, std::initializer_list<std::uint64_t> fields)
{
    const char *sep = "";
    for (std::uint64_t f : fields) {
        out += sep;
        appendUint(out, f);
        sep = ",";
    }
    out += '\n';
}

} // namespace

std::string
heatmapCsv(const ObserverReport &r)
{
    std::string out = "set,accesses,hits,misses,installs,evictions\n";
    for (std::size_t i = 0; i < r.perSet.size(); ++i) {
        const std::uint64_t inst =
            i < r.installs.size() ? r.installs[i] : 0;
        appendCsvRow(out, {i, r.perSet[i].accesses(), r.perSet[i].hits,
                           r.perSet[i].misses, inst,
                           inst > 0 ? inst - 1 : 0});
    }
    return out;
}

std::string
intervalCsv(const ObserverReport &r)
{
    std::string out = "interval,accesses,misses,writebacks,pd_reprograms\n";
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const IntervalSample &s = r.intervals[i];
        appendCsvRow(out, {i, s.accesses, s.misses, s.writebacks,
                           s.pdReprograms});
    }
    return out;
}

} // namespace bsim
