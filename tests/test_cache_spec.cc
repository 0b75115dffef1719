/**
 * @file
 * The cache-spec grammar (sim/cache_spec.hh): golden round-trips for
 * every registered variant, the per-variant access time and energy the
 * registry hooks produce, typed errors with actionable messages for
 * malformed specs, and two bounded fuzz cases: random printable strings
 * at the parser, and a token soup whose accepted specs are built and
 * run (asan/ubsan builds make both a UB hunt, not just a crash hunt).
 */

#include <gtest/gtest.h>

#include <optional>

#include "sim/cache_spec.hh"
#include "common/random.hh"
#include "sim/amat.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace bsim {
namespace {

/** parse -> print -> parse fixed point plus config equality. */
void
expectRoundTrip(const std::string &spec)
{
    const CacheConfig c = parseCacheSpec(spec);
    const std::string printed = printCacheSpec(c);
    const CacheConfig again = parseCacheSpec(printed);
    EXPECT_EQ(c, again) << spec << " -> " << printed;
    EXPECT_EQ(printed, printCacheSpec(again)) << spec;
}

TEST(CacheSpec, GoldenRoundTripsEveryVariant)
{
    // One canonical spec per registered kind; printCacheSpec must be a
    // fixed point of parse for each (pinned strings, so a grammar
    // change that silently re-spells a variant fails here).
    const struct
    {
        const char *spec;
        const char *label;
    } golden[] = {
        {"dm:16kB", "16kB-dm"},
        {"sa:16kB,8w", "8way"},
        {"victim:16kB,16e", "victim16"},
        {"bcache:16kB,mf=8,bas=8", "MF8-BAS8"},
        {"column:16kB", "column"},
        {"skew:16kB", "skewed2"},
        {"hac:16kB", "hac32"},
        // The HAC label is its associativity, sub / line.
        {"hac:16kB,sub=2kB", "hac64"},
        {"hac:16kB,line=64", "hac16"},
        {"xor:16kB", "xor-dm"},
        {"pad:16kB,2w,bits=5", "pad5-2way"},
        {"halt:16kB,4w", "halt4-4way"},
    };
    for (const auto &g : golden) {
        const CacheConfig c = parseCacheSpec(g.spec);
        EXPECT_EQ(c.label, g.label) << g.spec;
        EXPECT_EQ(printCacheSpec(c), g.spec) << "not canonical";
        expectRoundTrip(g.spec);
    }
}

TEST(CacheSpec, RegistryListsAllTenVariants)
{
    const auto &entries = cacheSpecEntries();
    EXPECT_EQ(entries.size(), 10u);
    const std::string listing = listCacheSpecs();
    for (const auto &e : entries) {
        EXPECT_NE(listing.find(e.name + ":"), std::string::npos)
            << e.name;
        EXPECT_NE(listing.find(e.synopsis), std::string::npos) << e.name;
        // Aliases resolve to the same entry, case-insensitively. The
        // lookup returns the first match, so a name or alias that two
        // entries share fails here too.
        for (const auto &a : e.aliases)
            EXPECT_EQ(findCacheSpecEntry(a), &e) << a;
        EXPECT_EQ(findCacheSpecEntry(e.name), &e);
    }
    EXPECT_NE(listing.find("+victim:"), std::string::npos)
        << "composition sugar undocumented";
}

TEST(CacheSpec, NonDefaultParametersRoundTrip)
{
    for (const char *spec : {
             "dm:8kB,line=64",
             "sa:32kB,4w,repl=random",
             "sa:16kB,8w,wp=wt",
             "sa:16kB,8w,repl=fifo,wp=wt,line=16",
             "victim:8kB,4e,line=64",
             "bcache:16kB,mf=64,bas=32,repl=nmru",
             "bcache:64kB,mf=2,bas=2,wp=wt,line=128",
             "column:8kB,line=16",
             "skew:32kB,line=64",
             "hac:16kB,sub=2kB,repl=plru",
             "xor:8kB,line=64",
             "pad:32kB,4w,bits=7,repl=random",
             "halt:32kB,8w,bits=6,repl=fifo,line=64",
         })
        expectRoundTrip(spec);
}

TEST(CacheSpec, AliasesAndCaseFoldParseEqual)
{
    EXPECT_EQ(parseCacheSpec("direct:16kB"), parseCacheSpec("dm:16kB"));
    EXPECT_EQ(parseCacheSpec("setassoc:16kB,8w"),
              parseCacheSpec("sa:16kB,8w"));
    EXPECT_EQ(parseCacheSpec("bc:16kB"), parseCacheSpec("bcache:16kB"));
    EXPECT_EQ(parseCacheSpec("BCACHE:16k,mf=8,bas=8"),
              parseCacheSpec("bcache:16384"));
    EXPECT_EQ(parseCacheSpec("xordm:16kB"), parseCacheSpec("xor:16kB"));
    EXPECT_EQ(parseCacheSpec("pmatch:16kB"), parseCacheSpec("pad:16kB"));
}

TEST(CacheSpec, VictimCompositionSugar)
{
    // dm:<size>+victim:<N> is the same config as victim:<size>,<N>e.
    EXPECT_EQ(parseCacheSpec("dm:16kB+victim:16"),
              parseCacheSpec("victim:16kB,16e"));
    EXPECT_EQ(parseCacheSpec("dm:8kB,line=64+victim:4"),
              parseCacheSpec("victim:8kB,4e,line=64"));
    EXPECT_EQ(parseCacheSpec("dm:16kB,line=64+victim:16"),
              parseCacheSpec("victim:16kB,16e,line=64"));
    // The composition requires a direct-mapped base.
    EXPECT_THROW(parseCacheSpec("sa:16kB,8w+victim:16"), CacheSpecError);
    EXPECT_THROW(parseCacheSpec("bcache:16kB+victim:16"),
                 CacheSpecError);
}

TEST(CacheSpec, WaysOneCanonicalizesToDm)
{
    // sa with one way is the direct-mapped baseline; it prints as dm:.
    const CacheConfig c = parseCacheSpec("sa:16kB,1w");
    EXPECT_EQ(c.label, "16kB-dm");
    EXPECT_EQ(printCacheSpec(c), "dm:16kB");
}

TEST(CacheSpec, AccessTimeAndEnergyPinnedPerVariant)
{
    // One spec per registered name: the AMAT access time / clock / AMAT
    // and the L1 energy terms, exact to the last bit (%.17g prints).
    const struct
    {
        const char *spec;
        double accessNs, clockNs, amatNs;
        double l1dAccess, victimProbe, pdMissRefund;
    } pinned[] = {
        {"dm:16kB", 0.83839999999999992, 0.83839999999999992,
         1.2534080000000001, 890.38400000000001, 0, 0},
        {"sa:16kB,4w", 0.9403999999999999, 0.9403999999999999,
         1.4058979999999999, 2061.9613873194844, 0, 0},
        {"victim:16kB,16e", 0.83839999999999992, 0.83839999999999992,
         1.2534080000000001, 890.38400000000001, 685.03599999999994, 0},
        {"bcache:16kB,mf=8,bas=8", 0.83839999999999992,
         0.83839999999999992, 1.2534080000000001, 984.94399999999996, 0,
         813.16799999999989},
        {"column:16kB", 0.83839999999999992, 0.83839999999999992,
         1.2534080000000001, 890.38400000000001, 0, 0},
        {"skew:16kB", 0.94639999999999991, 0.94639999999999991,
         1.414868, 1361.7192395292532, 0, 0},
        {"hac:16kB", 1.1375, 1.1375, 1.7005625, 7331.0273405356629, 0, 0},
        {"xor:16kB", 0.83839999999999992, 0.83839999999999992,
         1.2534080000000001, 890.38400000000001, 0, 0},
        {"pad:16kB,2w", 0.83839999999999992, 0.83839999999999992,
         1.2534080000000001, 1361.7192395292532, 0, 0},
        // The plain 4-way array's numbers, as sa:16kB,4w above.
        {"halt:16kB,4w", 0.9403999999999999, 0.9403999999999999,
         1.4058979999999999, 2061.9613873194844, 0, 0},
    };
    ASSERT_EQ(std::size(pinned), cacheSpecEntries().size());
    for (const auto &p : pinned) {
        const CacheConfig c = parseCacheSpec(p.spec);
        const AmatResult a = evaluateAmat(c, 0.05, 0.1);
        EXPECT_EQ(a.accessTimeNs, p.accessNs) << p.spec;
        EXPECT_EQ(a.clockNs, p.clockNs) << p.spec;
        EXPECT_EQ(a.amatNs, p.amatNs) << p.spec;
        const EnergyRates e = energyRatesFor(c);
        EXPECT_EQ(e.l1dAccess, p.l1dAccess) << p.spec;
        EXPECT_EQ(e.victimProbe, p.victimProbe) << p.spec;
        EXPECT_EQ(e.pdMissRefund, p.pdMissRefund) << p.spec;
    }
}

/** The error message must name the offender and what was accepted. */
void
expectError(const std::string &spec, const std::string &needle)
{
    try {
        parseCacheSpec(spec);
        FAIL() << spec << " parsed";
    } catch (const CacheSpecError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << spec << " -> " << e.what();
    }
}

TEST(CacheSpec, MalformedSpecsThrowActionableErrors)
{
    expectError("", "expected <kind>");
    expectError("bcache", "expected <kind>");
    expectError("nosuch:16kB", "unknown cache kind 'nosuch'");
    expectError("nosuch:16kB", "bcache"); // lists what is registered
    expectError("dm:", "size");
    expectError("dm:banana", "size");
    expectError("dm:16kB,mf=8", "unknown parameter 'mf=8'");
    expectError("dm:16kB,mf=8", "line=");      // ...and what is accepted
    expectError("sa:16kB,8q", "parameter '8q'");
    expectError("sa:16kB,repl=bogus", "repl");
    expectError("sa:16kB,wp=sideways", "write policy");
    expectError("dm:16kB+victim:", "entries");
    expectError("dm:16kB+elephant:4", "+victim");
    // The composed Victim kind is LRU write-back: a base policy it
    // cannot honour is rejected, not silently dropped.
    expectError("dm:16kB,wp=wt+victim:16", "drop repl= and wp=");
    expectError("dm:16kB,repl=random+victim:16", "drop repl= and wp=");
    // Well-formed but unbuildable: rejected here, not by a constructor.
    expectError("victim:16kB,0e", "at least one entry");
    expectError("dm:16kB+victim:0", "at least one entry");
    expectError("pad:16kB,bits=64", "bits=64 is outside");
    expectError("pad:16kB,4w,bits=0", "bits=0 is outside");
    expectError("halt:16kB,1w", "at least 2 ways");
    expectError("halt:16kB,bits=30", "bits=30 is outside");
    expectError("column:32,line=32", "at least two sets");
    expectError("sa:16kB,3w", "3 ways is not a power of two");
    expectError("bcache:3kB", "size 3072 is not a power of two");
    // A 1-byte line leaves a block-number key (or a single-set tag)
    // spanning the whole address, where the all-ones address would
    // alias the empty-frame marker.
    for (const char *spec :
         {"dm:16kB,line=1", "sa:4,4w,line=1", "sa:16kB,4w,line=1",
          "victim:16kB,line=1", "bcache:16kB,line=1", "column:16kB,line=1",
          "skew:16kB,line=1", "hac:16kB,line=1", "xor:16kB,line=1",
          "pad:16kB,4w,line=1", "halt:16kB,4w,line=1"})
        expectError(spec, "lines must be at least 2 B");
    // Signed, overflowing or field-overflowing numbers are rejected
    // with the token as typed, not wrapped or narrowed into range.
    expectError("dm:16kB,line=4294967328", "'line=4294967328' is out of");
    expectError("sa:16kB,4294967298w", "'4294967298w' is out of range");
    expectError("bcache:16kB,mf=4294967304", "'mf=4294967304' is out");
    expectError("pad:16kB,2w,bits=4294967301", "'bits=4294967301' is");
    expectError("victim:16kB,4294967297e", "at most 65536");
    expectError("victim:16kB,18446744073709551632e",
                "'18446744073709551632e' is out of range");
    expectError("dm:16kB+victim:18446744073709551632",
                "'victim:18446744073709551632' is out of range");
    expectError("dm:-16kB", "bad dm size '-16kB'");
    expectError("dm:18446744073709551616",
                "'18446744073709551616' is out of range");
    expectError("dm:18014398509481984kB", "'18014398509481984kB' is out");
}

TEST(CacheSpec, SizesAboveTheCapAreRejected)
{
    // kMaxSpecBytes is 64 MB: the cap itself parses, one step past it
    // (in any unit, for the cache size and for hac's sub=) is a typed
    // error instead of a multi-gigabyte allocation at build time.
    ASSERT_EQ(kMaxSpecBytes, std::uint64_t{64} << 20);
    EXPECT_EQ(parseCacheSpec("dm:64MB").sizeBytes, kMaxSpecBytes);
    EXPECT_EQ(parseCacheSpec("dm:65536kB").sizeBytes, kMaxSpecBytes);
    EXPECT_EQ(parseCacheSpec("dm:67108864").sizeBytes, kMaxSpecBytes);
    EXPECT_EQ(parseCacheSpec("hac:64MB,sub=64MB").hacSubarrayBytes,
              kMaxSpecBytes);
    expectError("dm:4096MB", "dm size '4096MB' is out of range (at most "
                             "67108864)");
    expectError("dm:1048576MB", "'1048576MB' is out of range");
    expectError("dm:65MB", "'65MB' is out of range");
    expectError("bcache:65537kB", "'65537kB' is out of range");
    expectError("sa:67108865,8w", "'67108865' is out of range");
    expectError("dm:128MB+victim:16", "'128MB' is out of range");
    expectError("hac:16kB,sub=128MB", "parameter sub '128MB' is out of");
    // The line count is capped too: the largest size with tiny lines
    // would otherwise build 64 M lines.
    EXPECT_EQ(parseCacheSpec("dm:64MB,line=32").lineBytes, 32u);
    expectError("dm:64MB,line=16", "is 4194304 lines (at most 2097152)");
    expectError("victim:8MB,line=1", "victim: size 8388608 / line=1");
    expectError("dm:64MB,line=1+victim:4", "is 67108864 lines");
}

TEST(CacheSpec, FuzzRandomPrintableSpecsNeverCrash)
{
    // Random printable strings, plus mutations of valid specs (the
    // interesting near-misses): the parser must either produce a config
    // whose printed form round-trips, or throw CacheSpecError with a
    // non-empty message. Anything else — crash, UB under asan, another
    // exception type — fails the run.
    Rng rng(0xb5eed);
    const char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789:,=+wekBM-_. ";
    const std::string seeds[] = {
        "dm:16kB",          "sa:16kB,8w",      "victim:16kB,16e",
        "bcache:16kB,mf=8", "column:16kB",     "skew:16kB",
        "hac:16kB,sub=2kB", "xor:16kB",        "pad:16kB,2w,bits=5",
        "dm:16kB+victim:16",
    };
    std::uint64_t parsed = 0, rejected = 0;
    for (int i = 0; i < 8000; ++i) {
        std::string s;
        if (i % 2 == 0) {
            const std::size_t n = rng.nextBounded(24);
            for (std::size_t j = 0; j < n; ++j)
                s += kAlphabet[rng.nextBounded(sizeof(kAlphabet) - 1)];
        } else {
            s = seeds[rng.nextBounded(std::size(seeds))];
            const std::size_t edits = 1 + rng.nextBounded(3);
            for (std::size_t j = 0; j < edits && !s.empty(); ++j) {
                const std::size_t at = rng.nextBounded(s.size());
                switch (rng.nextBounded(3)) {
                  case 0:
                    s[at] = kAlphabet[rng.nextBounded(
                        sizeof(kAlphabet) - 1)];
                    break;
                  case 1:
                    s.erase(at, 1);
                    break;
                  default:
                    s.insert(at, 1,
                             kAlphabet[rng.nextBounded(
                                 sizeof(kAlphabet) - 1)]);
                }
            }
        }
        try {
            const CacheConfig c = parseCacheSpec(s);
            EXPECT_EQ(parseCacheSpec(printCacheSpec(c)), c) << s;
            ++parsed;
        } catch (const CacheSpecError &e) {
            EXPECT_NE(e.what()[0], '\0') << s;
            ++rejected;
        }
    }
    // The mutation half must actually exercise both outcomes. Most
    // size mutations ("16kB" -> "6kB") are unbuildable and rejected at
    // parse time, so it takes 8000 draws to reach the parsed floor.
    EXPECT_GT(parsed, 100u);
    EXPECT_GT(rejected, 1000u);
}

/** Pick one of @p pool's entries. */
template <std::size_t N>
const char *
pick(Rng &rng, const char *const (&pool)[N])
{
    return pool[rng.nextBounded(N)];
}

TEST(CacheSpec, FuzzTokenSoupBuildsAndRunsOrThrows)
{
    // Specs assembled from grammar tokens: every kind and alias plus
    // unknown ones; zero, huge and non-power-of-two sizes and counts;
    // known, unknown and repeated keys; malformed `+victim:` tails.
    // Every input must either throw CacheSpecError or build a cache
    // that runs 1 k accesses. A crash, an abort or another exception
    // type fails the run.
    static const char *const kKinds[] = {
        "dm", "direct", "sa", "setassoc", "victim", "bcache", "column",
        "skew", "hac", "xor", "pad", "halt", "DM", "Bcache", "cam",
        "foo", "", "dm+victim", "sa "};
    static const char *const kSizes[] = {
        "16kB", "8k", "1kB", "64MB", "65536kB", "67108864", "2MB",
        "512", "32", "0", "0kB", "3kB", "1000", "12k", "65MB",
        "4096MB", "18446744073709551616", "-16kB", "kB", "16kb", "1M",
        "16 kB", ""};
    static const char *const kGoodCounts[] = {
        "1", "2", "4", "8", "16", "32", "64", "128"};
    static const char *const kBadCounts[] = {
        "0", "3", "7", "31", "1024", "65536", "65537", "4294967295",
        "4294967296", "18446744073709551616", "-1", "", "x", "8k"};
    static const char *const kCountKeys[] = {
        "line=", "mf=", "bas=", "bits=", "ways=", "foo=", "LINE=",
        "=", "sub="};
    static const char *const kWords[] = {
        "repl=lru", "repl=random", "repl=fifo", "repl=plru", "repl=nmru",
        "repl=bogus", "repl=", "wp=wb", "wp=wt", "WP=WT", "wp=xx",
        "sub=1kB", "sub=2kB", "sub=64MB", "sub=0", "sub=3kB", "mf",
        "8x", "w", "e8", "=", ""};
    static const char *const kSuffixes[] = {"w", "e", "W", "E", "x"};
    static const char *const kTails[] = {
        "+victim:16", "+victim:1", "+victim:0", "+victim:", "+victim:-1",
        "+victim:65536", "+victim:65537", "+victim:4294967296",
        "+victim:16e", "+victim:16+victim:4", "+victim:x", "+vict",
        "+", "+dm:16kB", "+victim:16,4w"};

    Rng rng(0x50a7);
    const auto count = [&rng] {
        return rng.nextBounded(3) == 0 ? pick(rng, kBadCounts)
                                       : pick(rng, kGoodCounts);
    };
    std::vector<MemAccess> reqs(1000);
    std::vector<AccessOutcome> outs(reqs.size());
    std::uint64_t built = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string s = pick(rng, kKinds);
        if (rng.nextBounded(16) != 0)
            s += ":";
        s += pick(rng, kSizes);
        std::vector<std::string> params;
        for (std::size_t n = rng.nextBounded(4); n > 0; --n) {
            switch (rng.nextBounded(3)) {
              case 0:
                params.push_back(std::string(pick(rng, kCountKeys)) +
                                 count());
                break;
              case 1:
                params.push_back(std::string(count()) +
                                 pick(rng, kSuffixes));
                break;
              default:
                params.push_back(pick(rng, kWords));
            }
        }
        if (!params.empty() && rng.nextBounded(8) == 0)
            params.push_back(params[rng.nextBounded(params.size())]);
        for (const std::string &p : params)
            s += "," + p;
        if (rng.nextBounded(4) == 0)
            s += pick(rng, kTails);

        std::optional<CacheConfig> c;
        try {
            c = parseCacheSpec(s);
        } catch (const CacheSpecError &e) {
            EXPECT_NE(e.what()[0], '\0') << s;
            ++rejected;
            continue;
        }
        try {
            auto cache = c->build("fuzz", 1, nullptr);
            // Mostly a window of a few cache sizes, so there are hits,
            // evictions and writebacks; some full-width addresses.
            const Addr window = 4 * c->sizeBytes;
            for (MemAccess &a : reqs) {
                a.addr = rng.nextBounded(4) == 0
                             ? rng.next()
                             : rng.nextBounded(window);
                a.type = rng.nextBounded(4) == 0 ? AccessType::Write
                                                 : AccessType::Read;
            }
            cache->accessBatch(reqs, outs.data());
            EXPECT_EQ(cache->stats().accesses, reqs.size()) << s;
            ++built;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "accepted spec '" << s
                          << "' failed to build or run: " << e.what();
        }
    }
    // Both outcomes must be exercised.
    EXPECT_GT(built, 100u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace bsim
