#include "bench/bench_json.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/strings.hh"

namespace bsim {
namespace bench {

namespace {

/** The six required keys and their expected kinds, in emit order. */
struct Field
{
    const char *key;
    JsonValue::Kind kind;
};

constexpr Field kSchema[] = {
    {"bench", JsonValue::Kind::String},
    {"config", JsonValue::Kind::String},
    {"accesses_per_sec", JsonValue::Kind::Number},
    {"wall_s", JsonValue::Kind::Number},
    {"jobs", JsonValue::Kind::Number},
    {"git_rev", JsonValue::Kind::String},
};

std::string
serializeRecord(const PerfRecord &r, const std::string &rev)
{
    JsonWriter w;
    w.beginObject()
        .kv("bench", r.bench)
        .kv("config", r.config)
        .kv("accesses_per_sec", r.accessesPerSec)
        .kv("wall_s", r.wallSeconds)
        .kv("jobs", r.jobs)
        .kv("git_rev", r.gitRev.empty() ? rev : r.gitRev)
        .endObject();
    return w.str();
}

/** One record per line so the log diffs cleanly across commits. */
std::string
serializeLog(const std::vector<std::string> &records)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        out += "  ";
        out += records[i];
        out += i + 1 < records.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

std::string
benchJsonPath()
{
    const char *v = std::getenv("BSIM_BENCH_JSON");
    return v ? v : "";
}

std::string
currentGitRev()
{
    if (const char *v = std::getenv("BSIM_GIT_REV"); v && *v)
        return v;
    if (FILE *p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        const std::size_t n = fread(buf, 1, sizeof(buf) - 1, p);
        pclose(p);
        std::string rev(buf, n);
        while (!rev.empty() &&
               (rev.back() == '\n' || rev.back() == '\r'))
            rev.pop_back();
        if (!rev.empty())
            return rev;
    }
    return "unknown";
}

std::optional<std::size_t>
validatePerfJson(const std::string &text, std::string *error)
{
    std::string perr;
    const std::optional<JsonValue> doc = parseJson(text, &perr);
    if (!doc) {
        if (error)
            *error = "not valid JSON: " + perr;
        return std::nullopt;
    }
    if (!doc->isArray()) {
        if (error)
            *error = strprintf("top-level value is %s, expected array",
                               JsonValue::kindName(doc->kind));
        return std::nullopt;
    }
    for (std::size_t i = 0; i < doc->array.size(); ++i) {
        const JsonValue &rec = doc->array[i];
        if (!rec.isObject()) {
            if (error)
                *error = strprintf("record %zu is %s, expected object",
                                   i, JsonValue::kindName(rec.kind));
            return std::nullopt;
        }
        for (const Field &f : kSchema) {
            const JsonValue *v = rec.find(f.key);
            if (!v) {
                if (error)
                    *error = strprintf("record %zu lacks key \"%s\"", i,
                                       f.key);
                return std::nullopt;
            }
            if (v->kind != f.kind) {
                if (error)
                    *error = strprintf(
                        "record %zu key \"%s\" is %s, expected %s", i,
                        f.key, JsonValue::kindName(v->kind),
                        JsonValue::kindName(f.kind));
                return std::nullopt;
            }
        }
        if (rec.object.size() != std::size(kSchema)) {
            if (error)
                *error = strprintf(
                    "record %zu has %zu keys, expected exactly %zu", i,
                    rec.object.size(), std::size(kSchema));
            return std::nullopt;
        }
    }
    return doc->array.size();
}

std::string
appendPerfRecords(const std::vector<PerfRecord> &records,
                  const std::string &path)
{
    const std::string target = path.empty() ? benchJsonPath() : path;
    if (target.empty())
        return "";

    // Re-serialize any existing well-formed records; quarantine — never
    // silently clobber — a file this module didn't write.
    std::vector<std::string> lines;
    std::string existing;
    if (readFile(target, existing) && !existing.empty()) {
        std::string verr;
        if (validatePerfJson(existing, &verr)) {
            const std::optional<JsonValue> doc = parseJson(existing);
            for (const JsonValue &rec : doc->array)
                lines.push_back(rec.dump());
        } else {
            const std::string quarantine = target + ".corrupt";
            if (std::rename(target.c_str(), quarantine.c_str()) != 0)
                return "cannot quarantine malformed " + target;
            std::fprintf(stderr,
                         "warning: %s was malformed (%s); moved to %s\n",
                         target.c_str(), verr.c_str(),
                         quarantine.c_str());
        }
    }

    const std::string rev = currentGitRev();
    for (const PerfRecord &r : records)
        lines.push_back(serializeRecord(r, rev));

    // Atomic replace: readers see either the old or the new log.
    const std::string tmp = target + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return "cannot open " + tmp + " for writing";
        out << serializeLog(lines);
        if (!out.flush())
            return "short write to " + tmp;
    }
    if (std::rename(tmp.c_str(), target.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename " + tmp + " over " + target;
    }
    return "";
}

std::string
appendPerfRecord(const PerfRecord &record, const std::string &path)
{
    return appendPerfRecords({record}, path);
}

void
reportSweepPerf(const std::string &bench, const std::string &config,
                const SweepSummary &summary)
{
    const std::string target = benchJsonPath();
    if (target.empty())
        return;
    PerfRecord r;
    r.bench = bench;
    r.config = config;
    r.accessesPerSec = summary.eventsPerSecond();
    r.wallSeconds = summary.wallSeconds;
    r.jobs = summary.threads;
    const std::string err = appendPerfRecord(r, target);
    if (!err.empty())
        std::fprintf(stderr,
                     "warning: %s not updated: %s\n",
                     target.c_str(), err.c_str());
    else
        // Diagnostics, not results: keep stdout clean for the table /
        // JSON stream (e.g. `bsim --shards N --stats-json -`).
        std::fprintf(stderr, "[perf] %s/%s -> %s\n", bench.c_str(),
                     config.c_str(), target.c_str());
}

} // namespace bench
} // namespace bsim
