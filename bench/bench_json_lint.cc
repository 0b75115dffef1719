/**
 * @file
 * Schema lint for BENCH_perf.json (driven by scripts/check_bench_json.sh
 * and the `check_bench_json` ctest): validates that a perf log is a JSON
 * array of exactly-schema records.
 *
 * Usage:
 *   bench_json_lint [FILE ...]   lint each file (default: benchJsonPath(),
 *                                else ./BENCH_perf.json; a missing
 *                                default file passes — no runs have been
 *                                recorded yet)
 *   bench_json_lint --selftest   exercise the validator on built-in good
 *                                and bad documents, no file I/O
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.hh"

using namespace bsim;

namespace {

int
lintFile(const std::string &path, bool missing_ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (missing_ok) {
            std::printf("%s: absent (no perf runs recorded yet) -- ok\n",
                        path.c_str());
            return 0;
        }
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    std::string err;
    const auto count = bench::validatePerfJson(ss.str(), &err);
    if (!count) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return 1;
    }
    std::printf("%s: %zu record(s) -- ok\n", path.c_str(), *count);
    return 0;
}

int
selftest()
{
    struct Case
    {
        const char *name;
        const char *text;
        bool valid;
    };
    const Case cases[] = {
        {"empty array", "[]", true},
        {"one record",
         R"([{"bench":"b","config":"c","accesses_per_sec":1.5,)"
         R"("wall_s":2,"jobs":8,"git_rev":"abc1234"}])",
         true},
        {"whitespace tolerated",
         "[\n  {\"bench\": \"b\", \"config\": \"c\",\n"
         "   \"accesses_per_sec\": 1e6, \"wall_s\": 0.25,\n"
         "   \"jobs\": 1, \"git_rev\": \"deadbee\"}\n]\n",
         true},
        {"not json", "{", false},
        {"not an array", "{\"bench\":\"b\"}", false},
        {"record not object", "[42]", false},
        {"missing key",
         R"([{"bench":"b","config":"c","accesses_per_sec":1,)"
         R"("wall_s":2,"jobs":8}])",
         false},
        {"wrong type",
         R"([{"bench":"b","config":"c","accesses_per_sec":"fast",)"
         R"("wall_s":2,"jobs":8,"git_rev":"abc"}])",
         false},
        {"extra key",
         R"([{"bench":"b","config":"c","accesses_per_sec":1,)"
         R"("wall_s":2,"jobs":8,"git_rev":"abc","extra":0}])",
         false},
        {"trailing garbage", "[] x", false},
    };

    int failures = 0;
    for (const Case &c : cases) {
        std::string err;
        const bool got =
            bench::validatePerfJson(c.text, &err).has_value();
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
        std::printf("bench_json_lint selftest: %zu case(s) ok\n",
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
        const std::string sink = bench::benchJsonPath();
        return lintFile(sink.empty() ? "BENCH_perf.json" : sink,
                        /*missing_ok=*/true);
    }
    int rc = 0;
    for (const std::string &f : files)
        rc |= lintFile(f, /*missing_ok=*/false);
    return rc;
}
