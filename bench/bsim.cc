/**
 * @file
 * bsim: the command-line front end. Runs any cache organisation, named
 * by a `--cache` spec (sim/cache_spec.hh; default
 * bcache:16kB,mf=8,bas=8), over any input — a named synthetic
 * workload, a trace file (streamed in O(chunk) memory via
 * workload/trace_reader), a sharded parallel trace replay on the sweep
 * engine, or the timed OOO-core model — and prints the standard
 * statistics readout or JSON. Sweep-backed runs (--shards) append a
 * record to the BSIM_BENCH_JSON perf log via bench::reportSweepPerf.
 * docs/TRACES.md walks through the trace-facing flags; usage() below
 * is the authoritative flag list.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "bench/bench_json.hh"
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

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n", msg);
    std::fprintf(stderr,
                 "usage: bsim [--cache SPEC] [--list-caches]\n"
                 "  --cache SPEC     declarative cache spec, e.g. "
                 "bcache:16kB,mf=8,bas=8,\n"
                 "                   sa:16kB,8w, dm:16kB+victim:16 "
                 "(--list-caches for the\n"
                 "                   registered grammar; default "
                 "bcache:16kB,mf=8,bas=8)\n"
                 "  [--workload NAME] [--side data|inst] [--seed N]\n"
                 "  [--trace FILE]   replay a trace (.bst, .din/text, "
                 "or either .gz);\n"
                 "                   streamed chunk by chunk, O(chunk) "
                 "memory\n"
                 "  [--shards N]     split the trace into N windows and "
                 "replay them\n"
                 "                   in parallel on the sweep engine "
                 "(cold cache per\n"
                 "                   shard; see docs/TRACES.md)\n"
                 "  [--jobs N]       sweep worker threads for --shards "
                 "(BSIM_JOBS)\n"
                 "  [--accesses N]   synthetic run length, or a cap on "
                 "trace replay\n"
                 "                   (traces default to the whole file;"
                 " not with\n"
                 "                   --shards)\n"
                 "  [--trace-info FILE]  print a trace's header/format "
                 "and exit\n"
                 "  [--timed]        OOO-core/Table-4 processor model "
                 "(workload-\n"
                 "                   driven only; --accesses is the "
                 "uop count;\n"
                 "                   not with --shards/--side/--jobs)\n"
                 "  [--stats-json F] write a bsim-stats-v1 document "
                 "(per-set\n"
                 "                   histograms, balance metrics, decoder"
                 " telemetry)\n"
                 "                   to F ('-' = stdout, suppresses the "
                 "report);\n"
                 "                   enables the observer\n"
                 "  [--heatmap F]    write the per-set access/miss/"
                 "eviction\n"
                 "                   histogram as CSV to F ('-' = stdout)"
                 "\n"
                 "  [--interval N]   windowed time-series every N "
                 "accesses;\n"
                 "                   embedded in --stats-json, or CSV to "
                 "stdout\n"
                 "  [--json]         the bsim-stats-v1 document on stdout"
                 "\n"
                 "                   (--timed: one JSON result line)\n");
    std::exit(2);
}

/**
 * Parse a flag's unsigned value into T: decimal, hex (0x) or octal
 * (leading 0), no sign, and no value that T cannot hold — anything
 * else is a usage error instead of a silent wrap or narrowing.
 */
template <typename T = std::uint64_t>
T
parseNum(const char *flag, const char *s)
{
    const std::optional<std::uint64_t> v = parseCount(s);
    if (!v || *v > std::numeric_limits<T>::max())
        usage((std::string("bad number for ") + flag + ": '" + s +
               "'")
                  .c_str());
    return static_cast<T>(*v);
}

/** --trace-info: the header/probe readout, no records replayed. */
int
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
    return 0;
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
                 CactiLite::bcache(p).total(), [&] {
                     CacheOrg o;
                     o.sizeBytes = p.sizeBytes;
                     o.lineBytes = p.lineBytes;
                     o.ways = 1;
                     return CactiLite::conventional(o).total();
                 }());
}

/** --shards: parallel replay, per-shard table + merged totals. */
int
runSharded(const std::string &trace_path, const CacheConfig &cfg,
           unsigned shards, unsigned jobs, bool json, const StatsExport &ex)
{
    SweepOptions opts;
    opts.jobs = jobs;
    TraceReplayOptions replay;
    replay.observe = ex.observerConfig();
    const TraceSweepResult res =
        runTraceSharded(trace_path, cfg, shards, opts, replay);

    if (json) {
        // The sharded bsim-stats-v1 document: merged totals plus the
        // per-shard runs. json + a '-' export is rejected up front, so
        // stdout is ours.
        std::printf("%s\n", toStatsJson(res, "trace:" + trace_path,
                                        cfg.label)
                                .c_str());
    } else {
        // A "-" export owns stdout; the report moves to stderr so the
        // piped JSON stays clean while a human still watches the run.
        std::FILE *out = ex.claimsStdout() ? stderr : stdout;
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
        t.print("sharded replay of " + trace_path + " on " + cfg.label,
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
    if (!ex.statsJsonPath.empty())
        writeTextOutput(ex.statsJsonPath,
                        toStatsJson(res, "trace:" + trace_path,
                                    cfg.label) +
                            "\n");
    if (res.observer)
        writeObserverExports(ex, *res.observer, json);
    bench::reportSweepPerf("bsim", cfg.label, res.summary);
    return 0;
}

/** The cache a run without --cache simulates: the paper's design point. */
constexpr const char *kDefaultCacheSpec = "bcache:16kB,mf=8,bas=8";

int
bsimMain(int argc, char **argv)
{
    std::string cacheSpec = kDefaultCacheSpec;
    std::string workload = "gcc";
    std::string side = "data";
    std::string trace_path;
    std::uint64_t accesses = 1'000'000;
    bool accesses_set = false;
    std::uint64_t seed = kDefaultSeed;
    unsigned shards = 0;
    unsigned jobs = 0;
    bool json = false;
    bool timed = false;
    StatsExport ex;
    std::set<std::string> given; // every flag on the command line

    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        given.insert(flag);
        auto need = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(flag);
            return argv[++i];
        };
        if (!std::strcmp(flag, "--cache"))
            cacheSpec = need();
        else if (!std::strcmp(flag, "--list-caches")) {
            std::fputs(listCacheSpecs().c_str(), stdout);
            return 0;
        }
        else if (!std::strcmp(flag, "--workload"))
            workload = need();
        else if (!std::strcmp(flag, "--side")) {
            side = need();
            if (side != "data" && side != "inst")
                usage(("bad --side '" + side +
                       "' (accepted: data, inst)")
                          .c_str());
        }
        else if (!std::strcmp(flag, "--trace"))
            trace_path = need();
        else if (!std::strcmp(flag, "--trace-info"))
            return printTraceInfo(need());
        else if (!std::strcmp(flag, "--shards"))
            shards = parseNum<unsigned>(flag, need());
        else if (!std::strcmp(flag, "--jobs"))
            jobs = parseNum<unsigned>(flag, need());
        else if (!std::strcmp(flag, "--accesses")) {
            accesses = parseNum(flag, need());
            accesses_set = true;
        }
        else if (!std::strcmp(flag, "--seed"))
            seed = parseNum(flag, need());
        else if (!std::strcmp(flag, "--stats-json"))
            ex.statsJsonPath = need();
        else if (!std::strcmp(flag, "--heatmap"))
            ex.heatmapPath = need();
        else if (!std::strcmp(flag, "--interval")) {
            ex.interval = parseNum(flag, need());
            if (ex.interval == 0)
                usage("--interval needs a window of at least 1 access");
        }
        else if (!std::strcmp(flag, "--json"))
            json = true;
        else if (!std::strcmp(flag, "--timed"))
            timed = true;
        else if (!std::strcmp(flag, "--help") || !std::strcmp(flag, "-h"))
            usage();
        else
            usage(flag);
    }

    // One parser names every cache; a malformed spec surfaces its
    // actionable message as usage text.
    CacheConfig cfg;
    try {
        cfg = parseCacheSpec(cacheSpec);
    } catch (const CacheSpecError &e) {
        usage(e.what());
    }

    if (json && ex.claimsStdout())
        usage("--json and a '-' export both claim stdout");

    if (timed) {
        if (!trace_path.empty())
            usage("--timed drives workloads, not traces");
        if (ex.wantsObserver())
            usage("--stats-json/--heatmap/--interval observe the "
                  "standalone miss-rate drivers, not --timed");
        // One core over one workload: no trace windows, no stream side
        // (it runs both) and no sweep workers.
        for (const char *f : {"--shards", "--side", "--jobs"})
            if (given.count(f))
                usage((std::string(f) + " does not apply to --timed")
                          .c_str());
        if (accesses == 0)
            usage("--timed needs --accesses of at least 1 (the uop "
                  "count)");
        if (!isSpec2kName(workload))
            usage("unknown --workload");
        const TimedResult tr = runTimed(workload, cfg, accesses, seed);
        if (json) {
            std::printf("%s\n", toJson(tr).c_str());
            return 0;
        }
        std::printf("config   : %s\n", cfg.label.c_str());
        std::printf("workload : %s (%llu uops)\n", workload.c_str(),
                    static_cast<unsigned long long>(tr.cpu.uops));
        std::printf("IPC      : %.3f  (%llu cycles)\n", tr.ipc(),
                    static_cast<unsigned long long>(tr.cpu.cycles));
        std::printf("L1I      : %s\n", tr.l1i.toString().c_str());
        std::printf("L1D      : %s\n", tr.l1d.toString().c_str());
        std::printf("L2       : %s\n", tr.l2.toString().c_str());
        std::printf("stalls   : I$ %llu cyc, load-miss %llu cyc, "
                    "mispredict %llu cyc (overlapping)\n",
                    static_cast<unsigned long long>(
                        tr.cpu.icacheStallCycles),
                    static_cast<unsigned long long>(
                        tr.cpu.loadMissCycles),
                    static_cast<unsigned long long>(
                        tr.cpu.mispredictCycles));
        return 0;
    }

    if (shards > 0) {
        if (trace_path.empty())
            usage("--shards needs --trace");
        if (accesses_set)
            usage("--accesses caps a single replay, not --shards");
        return runSharded(trace_path, cfg, shards, jobs, json, ex);
    }

    MissRateResult r;
    if (!trace_path.empty()) {
        // Streamed replay: O(chunk) resident memory regardless of the
        // file's record count (no whole-trace vector).
        TraceReplayOptions opts;
        opts.maxAccesses = accesses_set ? accesses : 0;
        opts.observe = ex.observerConfig();
        r = runTraceReplay(trace_path, cfg, TraceShard{}, opts);
    } else {
        if (!isSpec2kName(workload))
            usage("unknown --workload");
        const StreamSide s = side == "inst" ? StreamSide::Inst
                                            : StreamSide::Data;
        r = runMissRate(workload, s, cfg, accesses, seed,
                        ex.observerConfig());
    }

    if (!ex.statsJsonPath.empty())
        writeTextOutput(ex.statsJsonPath,
                        toStatsJson(r, trace_path.empty() ? "workload"
                                                          : "trace") +
                            "\n");
    if (r.observer)
        writeObserverExports(ex, *r.observer, json);

    if (json) {
        // json + a '-' export is rejected up front; stdout is ours.
        std::printf("%s\n", toStatsJson(r, trace_path.empty() ? "workload"
                                                              : "trace")
                                .c_str());
        return 0;
    }

    // A "-" export owns stdout; the human report moves to stderr.
    std::FILE *out = ex.claimsStdout() ? stderr : stdout;
    printMissRate(r, cfg,
                  trace_path.empty() ? workload + " (" + side + ")"
                                     : trace_path,
                  out);
    printBCacheCosts(cfg, out);
    return 0;
}

} // namespace

} // namespace bsim

int
main(int argc, char **argv)
{
    const int rc = bsim::bsimMain(argc, argv);
    // A report or document that never reached stdout is a failed run.
    if (std::fflush(stdout) != 0 || std::ferror(stdout))
        bsim_fatal("write failed on stdout");
    return rc;
}
