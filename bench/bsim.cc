/**
 * @file
 * bsim: the command-line front end. Runs any cache organisation, named
 * by a cache spec (sim/cache_spec.hh; default
 * bcache:16kB,mf=8,bas=8), over any input — a named synthetic
 * workload, a trace file (streamed in O(chunk) memory via
 * workload/trace_reader), a sharded parallel trace replay on the sweep
 * engine, or the timed OOO-core model — and prints the standard
 * statistics readout or JSON. docs/TRACES.md walks through the flags;
 * the kFlags table below, not usage(), is the authoritative flag list.
 * bsimMain parses every argument against it, picks the mode from the
 * flags present and rejects any flag the mode would ignore: a usage
 * error, not a no-op.
 */

#include <bitset>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "observe/export.hh"
#include "power/cacti_lite.hh"
#include "sim/report.hh"
#include "sim/trace_replay.hh"
#include "timing/storage_model.hh"
#include "workload/spec2k.hh"
#include "workload/trace_format.hh"
#include "workload/trace_reader.hh"

namespace bsim {

namespace {

/**
 * The ways bsim runs. Of the modes the present flags select, the first
 * in this order wins; a run that selects none is a Workload run.
 */
enum class Mode : unsigned
{
    Help, ListCaches, TraceInfo, Timed, Sharded, Trace, Workload
};

/** How a usage error names each mode. */
constexpr const char *kModeNames[] = {
    "--help",   "--list-caches",            "--trace-info",  "--timed",
    "--shards", "--trace without --shards", "a workload run"};

/** A set of modes, one bit per Mode. */
constexpr unsigned
in(std::same_as<Mode> auto... modes)
{
    return ((1u << static_cast<unsigned>(modes)) | ...);
}

/** The miss-rate runs, which the observer can ride along. */
constexpr unsigned kObserved =
    in(Mode::Workload, Mode::Trace, Mode::Sharded);
constexpr unsigned kCacheRuns = kObserved | in(Mode::Timed);

/** Every value a command line sets; the defaults are a bare `bsim`'s. */
struct Options : StatsExport
{
    std::string cacheSpec = "bcache:16kB,mf=8,bas=8"; // the paper's point
    std::string workload = "gcc";
    std::string side = "data";
    std::string tracePath;
    std::string traceInfoPath;
    /** Unset: 1 M accesses (or uops) for a workload, a whole trace. */
    std::optional<std::uint64_t> accesses;
    std::uint64_t seed = kDefaultSeed;
    unsigned shards = 0;
    unsigned jobs = 0;
    bool json = false;
};

/**
 * The value parser of a path or spec; its reader judges the text. An
 * empty one is bad: an empty export path would mean "off".
 */
template <auto Field>
bool
text(Options &o, const char *v)
{
    o.*Field = v;
    return *v != '\0';
}

/**
 * The value parser of a count of at least Min (parseCount's syntax)
 * that the field can hold: no silent wrap or narrowing.
 */
template <auto Field, std::uint64_t Min = 0>
bool
count(Options &o, const char *v)
{
    using T = std::remove_reference_t<decltype(o.*Field)>;
    const std::optional<std::uint64_t> n = parseCount(v);
    if (!n || *n < Min || *n > std::numeric_limits<T>::max())
        return false;
    o.*Field = static_cast<T>(*n);
    return true;
}

/** One bsim flag: its usage line, its value parser and its modes. */
struct Flag
{
    const char *name;
    const char *value; ///< the value's placeholder; null for a switch
    const char *help;
    /** Stores the value (null: presence is all); false rejects it. */
    bool (*parse)(Options &o, const char *value);
    unsigned modes;                ///< the modes it applies to
    Mode selects = Mode::Workload; ///< Workload: it selects none
    const char *alias = nullptr;
};

constexpr Flag kFlags[] = {
    {"--cache", "SPEC", "the cache (default bcache:16kB,mf=8,bas=8)",
     text<&Options::cacheSpec>, kCacheRuns},
    {"--list-caches", nullptr, "print the cache spec grammar", nullptr,
     in(Mode::ListCaches), Mode::ListCaches},
    {"--workload", "NAME", "the synthetic stream (default gcc)",
     [](Options &o, const char *v) { return isSpec2kName(o.workload = v); },
     in(Mode::Workload, Mode::Timed)},
    {"--side", "data|inst", "the stream's side (default data)",
     [](Options &o, const char *v) {
         return (o.side = v) == "data" || o.side == "inst";
     },
     in(Mode::Workload)},
    {"--seed", "N", "the stream's seed", count<&Options::seed>,
     in(Mode::Workload, Mode::Timed)},
    {"--trace", "FILE", "replay a trace (.bst, .din/text, either .gz)",
     text<&Options::tracePath>, in(Mode::Trace, Mode::Sharded), Mode::Trace},
    {"--shards", "N", "replay the trace as N windows in parallel",
     count<&Options::shards, 1>, in(Mode::Sharded), Mode::Sharded},
    {"--jobs", "N", "sweep worker threads (default BSIM_JOBS)",
     count<&Options::jobs>, in(Mode::Sharded)},
    {"--accesses", "N", "run length or uop count (default 1M); trace cap",
     [](Options &o, const char *v) {
         return (o.accesses = parseCount(v)).has_value();
     },
     in(Mode::Workload, Mode::Trace, Mode::Timed)},
    {"--trace-info", "FILE", "print a trace's header readout",
     text<&Options::traceInfoPath>, in(Mode::TraceInfo), Mode::TraceInfo},
    {"--timed", nullptr, "run the OOO-core/Table-4 processor model",
     nullptr, in(Mode::Timed), Mode::Timed},
    {"--stats-json", "F", "write the observer's bsim-stats-v1 document",
     text<&Options::statsJsonPath>, kObserved},
    {"--heatmap", "F", "write the per-set histogram as CSV",
     text<&Options::heatmapPath>, kObserved},
    {"--interval", "N", "a time-series window every N accesses",
     count<&Options::interval, 1>, kObserved},
    {"--json", nullptr, "print the bsim-stats-v1 document (or timed line)",
     [](Options &o, const char *) {
         o.json = true;
         return true;
     },
     kCacheRuns},
    {"--help", nullptr, "print this text (-h is the same)", nullptr,
     in(Mode::Help), Mode::Help, "-h"},
};

/** One line per flag, then the flags each mode takes. */
void
printUsage(std::FILE *out)
{
    std::fputs("usage: bsim [FLAG...]\n", out);
    for (const Flag &f : kFlags) {
        const std::string head =
            std::string(f.name) + " " + (f.value ? f.value : "");
        std::fprintf(out, "  %-18s %s\n", head.c_str(), f.help);
    }
    std::fputs("An F of '-' is stdout. docs/TRACES.md has more. "
               "Each mode takes only:\n", out);
    for (unsigned m = 0; m < std::size(kModeNames); ++m) {
        std::fprintf(out, "  %-24s", kModeNames[m]);
        for (const Flag &f : kFlags)
            if (f.modes >> m & 1)
                std::fprintf(out, " %s", f.name);
        std::fputc('\n', out);
    }
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    printUsage(stderr);
    std::exit(2);
}

/** Trace-info mode: the header/probe readout, no records replayed. */
void
printTraceInfo(const std::string &path)
{
    const TraceInfo info = probeTrace(path);
    std::printf("trace    : %s\n", path.c_str());
    std::printf("format   : %s%s\n", info.format.c_str(),
                info.compressed ? " (gzip)" : "");
    if (info.recordCount == kUnknownRecordCount)
        std::printf("records  : unknown (text traces carry no header; "
                    "convert to .bst)\n");
    else
        std::printf("records  : %llu\n",
                    static_cast<unsigned long long>(info.recordCount));
    if (info.format == "BST2") {
        const Bst2Header h{info.recordCount, info.addrBits,
                           info.chunkLen, 0};
        std::printf("chunking : %u records/chunk, %llu chunks\n",
                    info.chunkLen,
                    static_cast<unsigned long long>(h.chunks()));
        std::printf("addr bits: %u\n", info.addrBits);
        std::printf("zero-copy: %s\n",
                    !info.compressed && kBst2RecordMatchesMemAccess
                        ? "yes (mmap spans feed accessBatch directly)"
                        : info.compressed
                              ? "no (gzip inflates into a chunk buffer)"
                              : "no (host layout differs; records are "
                                "converted per chunk)");
    }
}

/**
 * The human-readable readout of one miss-rate run. Every printer takes
 * @p out because a '-' export owns stdout: the report then moves to
 * stderr instead of being suppressed, so one invocation can pipe clean
 * JSON while a human still watches the run.
 */
void
printMissRate(const MissRateResult &r, const CacheConfig &cfg,
              const std::string &driver_desc, std::FILE *out)
{
    std::fprintf(out, "config   : %s (%s, %s, %s)\n", cfg.label.c_str(),
                 sizeString(cfg.sizeBytes).c_str(),
                 replPolicyName(cfg.repl),
                 writePolicyName(cfg.writePolicy));
    std::fprintf(out, "driver   : %s\n", driver_desc.c_str());
    std::fprintf(out, "accesses : %llu\n",
                 static_cast<unsigned long long>(r.stats.accesses));
    std::fprintf(out, "miss rate: %.4f%%  (hits %llu, misses %llu)\n",
                 100.0 * r.missRate(),
                 static_cast<unsigned long long>(r.stats.hits),
                 static_cast<unsigned long long>(r.stats.misses));
    std::fprintf(out,
                 "traffic  : refills %llu, writebacks %llu, "
                 "writethroughs %llu\n",
                 static_cast<unsigned long long>(r.stats.refills),
                 static_cast<unsigned long long>(r.stats.writebacks),
                 static_cast<unsigned long long>(r.stats.writethroughs));
    if (r.pd)
        std::fprintf(out,
                     "PD       : hit-on-miss %.2f%%, predicted misses "
                     "%.2f%%\n",
                     100.0 * r.pd->pdHitRateOnMiss(),
                     100.0 * r.pd->missPredictionRate());
    if (r.victimHits)
        std::fprintf(out, "victim   : %llu buffer hits\n",
                     static_cast<unsigned long long>(r.victimHits));
    std::fprintf(out, "balance  : %s\n", r.balance.toString().c_str());
}

void
printBCacheCosts(const CacheConfig &cfg, std::FILE *out)
{
    if (cfg.kind != CacheKind::BCache)
        return;
    const BCacheParams p = cfg.bcacheParams();
    std::fprintf(out, "layout   : %s\n",
                 deriveLayout(p).toString().c_str());
    std::fprintf(out, "area     : %+.2f%% vs same-sized direct-mapped\n",
                 areaOverheadPct(
                     conventionalStorage(p.sizeBytes, p.lineBytes, 1),
                     bcacheStorage(p)));
    std::fprintf(out, "energy   : %.1f pJ/access (DM baseline %.1f)\n",
                 CactiLite::bcache(p).total(),
                 CactiLite::conventional({p.sizeBytes, p.lineBytes, 1})
                     .total());
}

/** Sharded mode: parallel replay, per-shard table + merged totals. */
void
runSharded(const Options &o, const CacheConfig &cfg)
{
    SweepOptions opts;
    opts.jobs = o.jobs;
    TraceReplayOptions replay;
    replay.observe = o.observerConfig();
    const TraceSweepResult res =
        runTraceSharded(o.tracePath, cfg, o.shards, opts, replay);
    const std::string doc =
        toStatsJson(res, "trace:" + o.tracePath, cfg.label);

    if (o.json) {
        // Merged totals plus the per-shard runs; stdout is ours.
        std::printf("%s\n", doc.c_str());
    } else {
        // A "-" export owns stdout; the report moves to stderr.
        std::FILE *out = o.claimsStdout() ? stderr : stdout;
        Table t({"shard", "window", "accesses", "misses", "miss%"});
        for (std::size_t i = 0; i < res.shards.size(); ++i) {
            const MissRateResult &s = res.shards[i];
            const std::size_t win = s.workload.find('[');
            const std::string window = win == std::string::npos
                                           ? std::string("[whole file)")
                                           : s.workload.substr(win);
            t.row()
                .cell(std::uint64_t(i))
                .cell(window)
                .cell(s.stats.accesses)
                .cell(s.stats.misses)
                .cell(100.0 * s.missRate(), 4);
        }
        t.print("sharded replay of " + o.tracePath + " on " + cfg.label,
                out);
        std::fprintf(out, "merged   : %s\n",
                     res.total.toString().c_str());
        if (res.victimHits)
            std::fprintf(out, "victim   : %llu buffer hits\n",
                         static_cast<unsigned long long>(
                             res.victimHits));
        if (res.pd)
            std::fprintf(out,
                         "PD       : %llu hit-on-miss, %llu predicted "
                         "misses\n",
                         static_cast<unsigned long long>(
                             res.pd->pdHitCacheMiss),
                         static_cast<unsigned long long>(res.pd->pdMiss));
        printSweepSummary(res.summary, out);
    }
    if (!o.statsJsonPath.empty())
        writeTextOutput(o.statsJsonPath, doc + "\n");
    if (res.observer)
        writeObserverExports(o, *res.observer, o.json);
}

/** Timed mode: one core over one workload, its readout or JSON line. */
void
runTimedCore(const Options &o, const CacheConfig &cfg)
{
    const TimedResult tr =
        runTimed(o.workload, cfg, o.accesses.value_or(1'000'000), o.seed);
    if (o.json) {
        std::printf("%s\n", toJson(tr).c_str());
        return;
    }
    std::printf("config   : %s\n", cfg.label.c_str());
    std::printf("workload : %s (%llu uops)\n", o.workload.c_str(),
                static_cast<unsigned long long>(tr.cpu.uops));
    std::printf("IPC      : %.3f  (%llu cycles)\n", tr.ipc(),
                static_cast<unsigned long long>(tr.cpu.cycles));
    std::printf("L1I      : %s\n", tr.l1i.toString().c_str());
    std::printf("L1D      : %s\n", tr.l1d.toString().c_str());
    std::printf("L2       : %s\n", tr.l2.toString().c_str());
    std::printf("stalls   : I$ %llu cyc, load-miss %llu cyc, "
                "mispredict %llu cyc (overlapping)\n",
                static_cast<unsigned long long>(tr.cpu.icacheStallCycles),
                static_cast<unsigned long long>(tr.cpu.loadMissCycles),
                static_cast<unsigned long long>(tr.cpu.mispredictCycles));
}

void
bsimMain(int argc, char **argv)
{
    // 1. Parse every argument against the table.
    Options o;
    std::bitset<std::size(kFlags)> given;
    Mode mode = Mode::Workload;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Flag *f = std::begin(kFlags);
        while (f != std::end(kFlags) && arg != f->name &&
               !(f->alias && arg == f->alias))
            ++f;
        if (f == std::end(kFlags))
            usage("unknown flag '" + arg + "'");
        if (given[f - kFlags])
            usage(arg + " given twice");
        given[f - kFlags] = true;
        const char *value = f->value && i + 1 < argc ? argv[++i] : nullptr;
        if (f->value && !value)
            usage(arg + " needs a value");
        if (f->parse && !f->parse(o, value))
            usage("bad value for " + arg + ": '" + value + "'");
        // 2. The mode: the first one a present flag selects.
        mode = std::min(mode, f->selects);
    }
    // 3. Every present flag must apply to that mode.
    const unsigned m = static_cast<unsigned>(mode);
    for (std::size_t k = 0; k < given.size(); ++k)
        if (given[k] && !(kFlags[k].modes >> m & 1))
            usage(std::string(kFlags[k].name) + " does not apply to " +
                  kModeNames[m]);

    if (mode == Mode::Help)
        printUsage(stdout);
    else if (mode == Mode::ListCaches)
        std::fputs(listCacheSpecs().c_str(), stdout);
    else if (mode == Mode::TraceInfo)
        printTraceInfo(o.traceInfoPath);
    if (mode < Mode::Timed)
        return;

    // A malformed spec's actionable message becomes usage text.
    CacheConfig cfg;
    try {
        cfg = parseCacheSpec(o.cacheSpec);
    } catch (const CacheSpecError &e) {
        usage(e.what());
    }
    if (o.json && o.claimsStdout())
        usage("--json and a '-' export both claim stdout");
    if (mode == Mode::Sharded && o.tracePath.empty())
        usage("--shards needs --trace");
    if (mode == Mode::Timed && o.accesses == 0)
        usage("--timed needs --accesses of at least 1 (the uop count)");

    if (mode == Mode::Timed)
        return runTimedCore(o, cfg);
    if (mode == Mode::Sharded)
        return runSharded(o, cfg);

    const bool trace = mode == Mode::Trace;
    MissRateResult r;
    if (trace) {
        // Streamed replay: O(chunk) resident memory regardless of the
        // file's record count (no whole-trace vector).
        TraceReplayOptions opts;
        opts.maxAccesses = o.accesses.value_or(0);
        opts.observe = o.observerConfig();
        r = runTraceReplay(o.tracePath, cfg, TraceShard{}, opts);
    } else {
        const StreamSide s =
            o.side == "inst" ? StreamSide::Inst : StreamSide::Data;
        r = runMissRate(o.workload, s, cfg, o.accesses.value_or(1'000'000),
                        o.seed, o.observerConfig());
    }
    const std::string doc = toStatsJson(r, trace ? "trace" : "workload");
    if (!o.statsJsonPath.empty())
        writeTextOutput(o.statsJsonPath, doc + "\n");
    if (r.observer)
        writeObserverExports(o, *r.observer, o.json);

    if (o.json) {
        // json + a '-' export is rejected up front; stdout is ours.
        std::printf("%s\n", doc.c_str());
        return;
    }
    // A "-" export owns stdout; the human report moves to stderr.
    std::FILE *out = o.claimsStdout() ? stderr : stdout;
    printMissRate(r, cfg,
                  trace ? o.tracePath : o.workload + " (" + o.side + ")",
                  out);
    printBCacheCosts(cfg, out);
}

} // namespace

} // namespace bsim

int
main(int argc, char **argv)
{
    bsim::bsimMain(argc, argv);
    // A report or document that never reached stdout is a failed run.
    if (std::fflush(stdout) != 0 || std::ferror(stdout))
        bsim_fatal("write failed on stdout");
    return 0;
}
