/**
 * @file
 * Schema lint for "bsim-stats-v1" documents (`bsim --stats-json`),
 * driven by scripts/check_stats_json.sh and the `check_stats_json`
 * ctest. The schema is produced by sim/report.cc (toStatsJson) and the
 * observe/ export layer — change them and this validator together.
 *
 * Usage:
 *   stats_json_lint FILE...     lint each document
 *   stats_json_lint --selftest  exercise the validator on built-in good
 *                               and bad documents, no file I/O
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

using namespace bsim;

namespace {

/** Validation state: first failure wins, the rest short-circuit. */
struct Lint
{
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what;
        return false;
    }

    bool ok() const { return error.empty(); }
};

const JsonValue *
member(Lint &l, const JsonValue &obj, const std::string &key,
       bool required, const char *where)
{
    const JsonValue *v = obj.find(key);
    if (!v && required)
        l.fail(std::string(where) + ": missing key '" + key + "'");
    return v;
}

bool
expectNumber(Lint &l, const JsonValue *v, const char *where)
{
    if (!v)
        return false;
    if (!v->isNumber())
        return l.fail(std::string(where) + ": expected a number");
    return true;
}

bool
expectString(Lint &l, const JsonValue *v, const char *where)
{
    if (!v)
        return false;
    if (!v->isString())
        return l.fail(std::string(where) + ": expected a string");
    return true;
}

/** An array of numbers, optionally of exactly @p want elements. */
bool
numberArray(Lint &l, const JsonValue *v, const char *where,
            std::size_t want = ~std::size_t{0})
{
    if (!v)
        return false;
    if (!v->isArray())
        return l.fail(std::string(where) + ": expected an array");
    if (want != ~std::size_t{0} && v->array.size() != want)
        return l.fail(std::string(where) + ": expected " +
                      std::to_string(want) + " element(s), got " +
                      std::to_string(v->array.size()));
    for (const JsonValue &e : v->array)
        if (!e.isNumber())
            return l.fail(std::string(where) +
                          ": non-number array element");
    return true;
}

/** Exactly the keys in @p keys, all numbers. */
bool
numberObject(Lint &l, const JsonValue *v,
             const std::vector<const char *> &keys, const char *where)
{
    if (!v)
        return false;
    if (!v->isObject())
        return l.fail(std::string(where) + ": expected an object");
    for (const char *k : keys)
        expectNumber(l, member(l, *v, k, true, where), where);
    if (v->object.size() != keys.size())
        return l.fail(std::string(where) + ": unexpected extra key");
    return l.ok();
}

void
lintStats(Lint &l, const JsonValue *stats, const char *where)
{
    if (!numberObject(l, stats,
                      {"accesses", "hits", "misses", "missRate",
                       "readAccesses", "readMisses", "writeAccesses",
                       "writeMisses", "fetchAccesses", "fetchMisses",
                       "writebacks", "writethroughs", "refills"},
                      where))
        return;
    const double acc = stats->find("accesses")->number;
    const double hit = stats->find("hits")->number;
    const double mis = stats->find("misses")->number;
    if (hit + mis != acc)
        l.fail(std::string(where) + ": hits + misses != accesses");
}

void
lintObserver(Lint &l, const JsonValue &obs, const char *where)
{
    if (!obs.isObject()) {
        l.fail(std::string(where) + ": expected an object");
        return;
    }
    const JsonValue *per = member(l, obs, "perSet", true, where);
    if (per && per->isObject()) {
        const JsonValue *lines = member(l, *per, "lines", true, where);
        if (expectNumber(l, lines, where)) {
            const auto n = static_cast<std::size_t>(lines->number);
            numberArray(l, member(l, *per, "accesses", true, where),
                        "perSet.accesses", n);
            numberArray(l, member(l, *per, "hits", true, where),
                        "perSet.hits", n);
            numberArray(l, member(l, *per, "misses", true, where),
                        "perSet.misses", n);
            numberArray(l, member(l, *per, "installs", true, where),
                        "perSet.installs", n);
        }
    } else if (per) {
        l.fail(std::string(where) + ".perSet: expected an object");
    }
    numberObject(l, member(l, obs, "balanceMetrics", true, where),
                 {"maxRefs", "meanRefs", "maxOverMean", "cov", "gini"},
                 "balanceMetrics");
    expectNumber(l, member(l, obs, "writebacks", true, where),
                 "observer.writebacks");
    if (const JsonValue *iv = obs.find("intervals")) {
        if (!iv->isObject()) {
            l.fail("intervals: expected an object");
            return;
        }
        const JsonValue *len = member(l, *iv, "length", true,
                                      "intervals");
        if (expectNumber(l, len, "intervals.length") &&
            len->number <= 0)
            l.fail("intervals.length: must be positive");
        const JsonValue *samples = member(l, *iv, "samples", true,
                                          "intervals");
        if (samples && samples->isArray()) {
            for (const JsonValue &s : samples->array)
                numberObject(l, &s,
                             {"accesses", "misses", "writebacks",
                              "pdReprograms"},
                             "intervals.samples[]");
        } else if (samples) {
            l.fail("intervals.samples: expected an array");
        }
    }
    if (const JsonValue *pd = obs.find("pd")) {
        if (!pd->isObject()) {
            l.fail("observer.pd: expected an object");
            return;
        }
        expectNumber(l, member(l, *pd, "reprograms", true,
                               "observer.pd"),
                     "observer.pd.reprograms");
        numberArray(l, member(l, *pd, "reprogramsPerGroup", true,
                              "observer.pd"),
                    "observer.pd.reprogramsPerGroup");
        numberArray(l, member(l, *pd, "occupancyPerGroup", true,
                              "observer.pd"),
                    "observer.pd.occupancyPerGroup");
    }
}

/**
 * One run body: top level of single runs, elements of "shards". Every
 * run body carries a balance; the sharded top level has one only when
 * the replay was observed, so it passes @p balance_required false.
 */
void
lintRunBody(Lint &l, const JsonValue &run, bool balance_required,
            const char *where)
{
    expectString(l, member(l, run, "workload", true, where),
                 "workload");
    expectString(l, member(l, run, "config", true, where), "config");
    lintStats(l, member(l, run, "stats", true, where), "stats");
    if (const JsonValue *pd = run.find("pd"))
        numberObject(l, pd,
                     {"pdHitCacheMiss", "pdMiss", "pdHitRateOnMiss",
                      "missPredictionRate"},
                     "pd");
    if (const JsonValue *vh = run.find("victimHits"))
        expectNumber(l, vh, "victimHits");
    const JsonValue *bal =
        member(l, run, "balance", balance_required, where);
    if (bal)
        numberObject(l, bal,
                     {"frequentHitSetsPct", "hitsInFrequentHitSetsPct",
                      "frequentMissSetsPct",
                      "missesInFrequentMissSetsPct",
                      "lessAccessedSetsPct",
                      "accessesInLessAccessedSetsPct"},
                     "balance");
    if (const JsonValue *obs = run.find("observer"))
        lintObserver(l, *obs, "observer");
}

bool
validateStatsJson(const std::string &text, std::string *error)
{
    Lint l;
    std::string perr;
    const auto doc = parseJson(text, &perr);
    if (!doc) {
        if (error)
            *error = "parse: " + perr;
        return false;
    }
    if (!doc->isObject()) {
        if (error)
            *error = "top level: expected an object";
        return false;
    }
    const JsonValue *schema = member(l, *doc, "schema", true, "top");
    if (expectString(l, schema, "schema") &&
        schema->string != "bsim-stats-v1")
        l.fail("schema: expected \"bsim-stats-v1\", got \"" +
               schema->string + "\"");
    const JsonValue *driver = member(l, *doc, "driver", true, "top");
    std::string d;
    if (expectString(l, driver, "driver")) {
        d = driver->string;
        if (d != "workload" && d != "trace" && d != "sharded")
            l.fail("driver: must be workload, trace or sharded");
    }
    if (l.ok()) {
        // Sharded documents may lack a top-level balance (only present
        // when the replay was observed); single runs always carry one.
        lintRunBody(l, *doc, /*balance_required=*/d != "sharded", "top");
    }
    if (d == "sharded") {
        const JsonValue *shards = member(l, *doc, "shards", true,
                                         "top");
        if (shards && shards->isArray()) {
            for (const JsonValue &s : shards->array) {
                if (!s.isObject()) {
                    l.fail("shards[]: expected an object");
                    break;
                }
                lintRunBody(l, s, /*balance_required=*/true, "shards[]");
            }
        } else if (shards) {
            l.fail("shards: expected an array");
        }
    } else if (doc->find("shards")) {
        l.fail("shards: only sharded documents carry a shards array");
    }
    if (!l.ok() && error)
        *error = l.error;
    return l.ok();
}

int
lintFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!validateStatsJson(ss.str(), &err)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return 1;
    }
    std::printf("%s: bsim-stats-v1 -- ok\n", path.c_str());
    return 0;
}

const char *kGoodStats =
    R"("stats":{"accesses":10,"hits":8,"misses":2,"missRate":0.2,)"
    R"("readAccesses":5,"readMisses":1,"writeAccesses":5,)"
    R"("writeMisses":1,"fetchAccesses":0,"fetchMisses":0,)"
    R"("writebacks":1,"writethroughs":0,"refills":2})";

const char *kGoodBalance =
    R"("balance":{"frequentHitSetsPct":1,"hitsInFrequentHitSetsPct":2,)"
    R"("frequentMissSetsPct":3,"missesInFrequentMissSetsPct":4,)"
    R"("lessAccessedSetsPct":5,"accessesInLessAccessedSetsPct":6})";

const char *kGoodObserver =
    R"("observer":{"perSet":{"lines":2,"accesses":[6,4],"hits":[5,3],)"
    R"("misses":[1,1],"installs":[1,1]},"balanceMetrics":{"maxRefs":6,)"
    R"("meanRefs":5,"maxOverMean":1.2,"cov":0.2,"gini":0.1},)"
    R"("writebacks":1,"intervals":{"length":5,"samples":[{"accesses":5,)"
    R"("misses":1,"writebacks":0,"pdReprograms":0}]},"pd":{)"
    R"("reprograms":1,"reprogramsPerGroup":[1],"occupancyPerGroup":[2]}})";

int
selftest()
{
    struct Case
    {
        const char *name;
        std::string text;
        bool valid;
    };
    const std::string head =
        R"({"schema":"bsim-stats-v1","driver":"trace",)"
        R"("workload":"trace:t.bst","config":"dm-16kB",)";
    const Case cases[] = {
        {"minimal run",
         head + kGoodStats + "," + kGoodBalance + "}", true},
        {"observed run",
         head + kGoodStats + "," + kGoodBalance + "," + kGoodObserver +
             "}",
         true},
        {"sharded",
         R"({"schema":"bsim-stats-v1","driver":"sharded",)"
         R"("workload":"trace:t.bst","config":"dm-16kB",)" +
             std::string(kGoodStats) + R"(,"shards":[)" + head +
             kGoodStats + "," + kGoodBalance + "}]}",
         true},
        {"not json", "{", false},
        {"wrong schema",
         R"({"schema":"bsim-stats-v2","driver":"trace",)"
         R"("workload":"w","config":"c",)" +
             std::string(kGoodStats) + "," + kGoodBalance + "}",
         false},
        {"bad driver",
         R"({"schema":"bsim-stats-v1","driver":"magic",)"
         R"("workload":"w","config":"c",)" +
             std::string(kGoodStats) + "," + kGoodBalance + "}",
         false},
        {"missing balance", head + kGoodStats + "}", false},
        {"inconsistent counters",
         head +
             R"("stats":{"accesses":10,"hits":9,"misses":2,)"
             R"("missRate":0.2,"readAccesses":5,"readMisses":1,)"
             R"("writeAccesses":5,"writeMisses":1,"fetchAccesses":0,)"
             R"("fetchMisses":0,"writebacks":1,"writethroughs":0,)"
             R"("refills":2},)" +
             kGoodBalance + "}",
         false},
        {"perSet length mismatch",
         head + kGoodStats + "," + kGoodBalance + "," +
             R"("observer":{"perSet":{"lines":3,"accesses":[6,4],)"
             R"("hits":[5,3],"misses":[1,1],"installs":[1,1]},)"
             R"("balanceMetrics":{"maxRefs":6,"meanRefs":5,)"
             R"("maxOverMean":1.2,"cov":0.2,"gini":0.1},)"
             R"("writebacks":1}})",
         false},
        {"shards on a single run",
         head + kGoodStats + "," + kGoodBalance +
             R"(,"shards":[]})",
         false},
        {"shard missing balance",
         R"({"schema":"bsim-stats-v1","driver":"sharded",)"
         R"("workload":"trace:t.bst","config":"dm-16kB",)" +
             std::string(kGoodStats) + R"(,"shards":[)" + head +
             kGoodStats + "}]}",
         false},
    };

    int failures = 0;
    for (const Case &c : cases) {
        std::string err;
        const bool got = validateStatsJson(c.text, &err);
        if (got != c.valid) {
            std::fprintf(stderr,
                         "selftest FAIL: %s: expected %s, got %s%s%s\n",
                         c.name, c.valid ? "valid" : "invalid",
                         got ? "valid" : "invalid",
                         err.empty() ? "" : ": ", err.c_str());
            ++failures;
        }
    }
    if (failures == 0)
        std::printf("stats_json_lint selftest: %zu case(s) ok\n",
                    std::size(cases));
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selftest();
        files.push_back(arg);
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "usage: stats_json_lint FILE... | --selftest\n");
        return 2;
    }
    int rc = 0;
    for (const std::string &f : files)
        rc |= lintFile(f);
    return rc;
}
