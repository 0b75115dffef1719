/**
 * @file
 * Command-line soup for the bsim_soup ctest: draws deterministic `bsim`
 * invocations from bsim's flag table — valid values next to 0, huge,
 * negative and non-numeric ones, missing files, directories, `-`
 * outputs, repeated and value-less flags, retired flags, and BSIM_JOBS
 * environment values — so scripts/check_bsim_soup.sh can
 * check that every run ends in a result (exit 0), an input error
 * (exit 1) or a usage error (exit 2), never a signal or a hang.
 *
 *   bsim_soup --flags                       print the flag table
 *   bsim_soup BSIM DIR BST DIN COUNT SEED   print COUNT cases
 *
 * Each case is one line of single-quoted shell words: `lint` or `-`
 * (whether a run that exits 0 prints exactly one bsim-stats-v1
 * document on stdout), then NAME=VALUE environment words, then BSIM
 * and its arguments. BST and DIN are readable traces; DIR is a scratch
 * directory holding empty.bst and empty.din, and the outputs go there.
 * Every run length drawn is at most 5000; only a lone flag runs the
 * default 1 M, so each case takes well under a second. Everything
 * derives from SEED.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.hh"

using namespace bsim;

namespace {

/**
 * One bsim flag and the values the soup feeds it: ones bsim should
 * accept, and ones it should reject (both empty: a switch).
 */
struct Flag
{
    const char *name;
    std::vector<std::string> good;
    std::vector<std::string> bad;
};

/** Placeholders the case writer replaces with the fixture paths. */
constexpr const char *kBst = "@BST";
constexpr const char *kDin = "@DIN";

std::vector<Flag>
flagTable(const std::string &dir)
{
    const std::vector<std::string> traces = {kBst, kDin};
    const std::vector<std::string> bad_traces = {
        dir + "/missing.bst", dir + "/missing.din", dir,
        dir + "/empty.bst",   dir + "/empty.din",   "-"};
    return {
        {"--cache",
         {"dm:16kB", "sa:8kB,4w", "bcache:16kB,mf=8,bas=8",
          "dm:4kB+victim:16", "skew:8kB", "hac:16kB", "pad:8kB,4w"},
         {"bogus", "dm:0kB", "sa:16kB,3w", "bcache:16kB,mf=3", "dm:128MB",
          "dm:16kB+victim:0", "dm:16kB,wp=wt+victim:16",
          "dm:16kB,repl=random+victim:16", ""}},
        {"--list-caches", {}, {}},
        {"--workload", {"gcc", "equake", "mcf", "art"}, {"quake3", ""}},
        {"--side", {"data", "inst"}, {"both", ""}},
        {"--seed", {"0", "7", "18446744073709551615"},
         {"18446744073709551616", "-1", "x"}},
        {"--trace", traces, bad_traces},
        {"--trace-info", traces, bad_traces},
        {"--shards", {"1", "3", "64", "4294967295"},
         {"0", "4294967296", "-1", "x"}},
        {"--jobs", {"0", "1", "2", "4294967295"},
         {"4294967296", "-1", "x"}},
        {"--accesses", {"0", "1", "777", "5000"},
         {"-1", "x", "99999999999999999999"}},
        {"--stats-json", {dir + "/s.json", "-"},
         {dir, dir + "/no/such/s.json"}},
        {"--heatmap", {dir + "/h.csv", "-"},
         {dir, dir + "/no/such/h.csv"}},
        {"--interval", {"1", "64", "18446744073709551615"},
         {"0", "-1", "x"}},
        {"--json", {}, {}},
        {"--timed", {}, {}},
        {"--help", {}, {}},
    };
}

const std::vector<Flag> kEnv = {
    {"BSIM_JOBS", {"1", "3"}, {"0", "x", "-2", "99999999999"}},
};

/** Words that are not in the table at all, retired flags included. */
const std::vector<std::string> kStray = {"--bogus", "--sample", "--batch",
                                         "-",       "",         "-h"};

const std::string &
pick(const std::vector<std::string> &v, Rng &rng)
{
    return v[rng.nextBounded(v.size())];
}

/** A value for @p f: one it should reject a fifth of the time. */
const std::string &
pickValue(const Flag &f, Rng &rng)
{
    return pick(rng.nextBool(0.2) ? f.bad : f.good, rng);
}

std::string
quote(const std::string &word)
{
    if (word.find('\'') != std::string::npos) {
        std::fprintf(stderr, "bsim_soup: unquotable word %s\n",
                     word.c_str());
        std::exit(2);
    }
    return "'" + word + "'";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--flags") {
        for (const Flag &f : flagTable(""))
            std::printf("%s\n", f.name);
        return 0;
    }
    if (argc != 7) {
        std::fprintf(stderr, "usage: bsim_soup --flags | "
                             "bsim_soup BSIM DIR BST DIN COUNT SEED\n");
        return 2;
    }
    const std::string bsim = argv[1];
    const std::vector<Flag> table = flagTable(argv[2]);
    const std::string bst = argv[3];
    const std::string din = argv[4];
    const unsigned long count = std::strtoul(argv[5], nullptr, 0);
    Rng rng(std::strtoull(argv[6], nullptr, 0));
    const Flag *accesses = nullptr;
    for (const Flag &f : table)
        if (std::string(f.name) == "--accesses")
            accesses = &f;

    for (unsigned long k = 0; k < count; ++k) {
        std::vector<std::string> words;
        for (const Flag &e : kEnv)
            if (rng.nextBool(0.15))
                words.push_back(std::string(e.name) + "=" +
                                pickValue(e, rng));
        words.push_back(bsim);
        // A tenth of the cases are one flag alone, so the modes that
        // take no other flag (--help, --list-caches, --trace-info) run
        // too; every other case names a run length, so none but those
        // runs the default 1 M.
        const bool alone = rng.nextBool(0.1);
        bool lint = true;
        bool json = false;
        const std::size_t n = alone ? 1 : 1 + rng.nextBounded(6);
        std::vector<std::string> args;
        if (!alone) {
            args = {"--accesses", pick(accesses->good, rng)};
            if (rng.nextBool(0.3)) {
                args.push_back("--json");
                json = true;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.nextBool(0.05)) {
                args.push_back(pick(kStray, rng));
                lint = false;
                continue;
            }
            const Flag &f = table[rng.nextBounded(table.size())];
            const std::string name = f.name;
            // A repeated flag, or a mode that takes no other flag drawn
            // beside others, is a usage error; keep a tenth of them so
            // most cases still reach a run.
            const bool lone_mode = name == "--list-caches" ||
                                   name == "--trace-info" ||
                                   name == "--help";
            if ((std::find(args.begin(), args.end(), name) != args.end() ||
                 (lone_mode && !alone)) &&
                !rng.nextBool(0.1))
                continue;
            args.push_back(name);
            if (!f.good.empty()) {
                std::string v = pickValue(f, rng);
                if (v == kBst)
                    v = bst;
                else if (v == kDin)
                    v = din;
                args.push_back(v);
            }
            json = json || name == "--json";
            // These print something other than one stats document.
            if (name == "--timed" || name == "--list-caches" ||
                name == "--trace-info" || name == "--help")
                lint = false;
        }
        // Now and then the last flag loses its value.
        if (rng.nextBool(0.05)) {
            args.pop_back();
            lint = false;
        }
        std::string line = json && lint ? "lint" : "-";
        for (const std::string &w : words)
            line += " " + quote(w);
        for (const std::string &a : args)
            line += " " + quote(a);
        std::printf("%s\n", line.c_str());
    }
    return 0;
}
