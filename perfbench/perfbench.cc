/**
 * @file
 * Host-time benchmark of the B-Cache simulator (README.md in this
 * directory). One process runs one workload:
 *
 *   perfbench --workload dcache_grid|trace_observed|timed_ipc
 *             --seed N --seconds S --trace 0|1 --tmp-dir DIR
 *             [--pinned FILE] [--spans-out FILE]
 *             [--pin-out FILE] [--git-rev REV]
 *
 * Untraced (--trace 0) it repeats the workload's fixed job list on the
 * sweep pool for S seconds and reports the end-to-end metrics. Traced
 * (--trace 1) it alternates untraced rounds with rounds whose jobs are
 * rebuilt here from the library's public calls, with a span around each
 * call, and reports the per-layer metrics. Every round's simulated
 * results are digested and checked (pinned digests at the default seed,
 * round-to-round and traced-vs-untraced equality at any seed, and an
 * independent direct-mapped reference model). The last line of stdout
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_core.hh"
#include "cache/victim_cache.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "cpu/ooo_core.hh"
#include "sim/report.hh"
#include "sim/trace_replay.hh"
#include "workload/trace_format.hh"

using namespace bsim;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// ---- run lengths (fixed; part of the benchmark definition) ----

constexpr std::uint64_t kGridAccesses = 1'000'000;    ///< per grid job
constexpr std::uint64_t kTraceRecordsPerWorkload = 131072;
constexpr unsigned kTraceShards = 13;                 ///< per spec
constexpr std::uint64_t kTimedUops = 400'000;         ///< per timed job
constexpr std::uint64_t kProbeAccesses = 65536;       ///< per data stream
constexpr std::uint64_t kProbeTraceRecords = 32768;   ///< per data stream
constexpr std::uint64_t kProbeUops = 100'000;         ///< per workload
constexpr std::uint64_t kProbeCpuUops = 50'000;       ///< per timed probe
constexpr int kSetupRepeats = 9;
constexpr unsigned kMaxWorkers = 4;
constexpr double kWarmupSeconds = 2.0;
const char *const kTraceFile = "inst.bst";

#if defined(BSIM_SANITIZED) || defined(BSIM_COVERAGE) ||                 \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
const char *const kInstrumented =
    "sanitizer or coverage instrumentation slows each layer by a "
    "different factor, so its host times say nothing about the "
    "simulator";
#elif !defined(__OPTIMIZE__)
const char *const kInstrumented =
    "an unoptimised build's host times say nothing about the simulator";
#else
const char *const kInstrumented = nullptr;
#endif

/** Where timed loops leave a result, so the compiler keeps the work. */
volatile std::uint64_t g_sink = 0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, std::int32_t parent = -1)
        : log_(log), index_(log.open(name, parent))
    {
    }
    ~Scope() { log_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int32_t index() const { return index_; }

  private:
    SpanLog &log_;
    std::int32_t index_;
};

/** Span name of one accessBatch call, by cache family. */
const char *
accessSpanName(const CacheConfig &c)
{
    switch (c.kind) {
      case CacheKind::SetAssoc:
        return c.ways == 1 ? "cache.access.dm" : "cache.access.sa";
      case CacheKind::Victim:
        return "cache.access.victim";
      case CacheKind::BCache:
        return "bcache.access";
      default:
        return "cache.access.other";
    }
}

/** The side counters a MissRateResult carries, read off a cache. */
MissRateResult
resultOf(BaseCache &cache, const std::string &workload,
         const std::string &config,
         std::optional<ObserverReport> observer = std::nullopt)
{
    MissRateResult r;
    r.workload = workload;
    r.config = config;
    r.stats = cache.stats();
    r.balance = analyzeBalance(cache.setUsage());
    if (auto *bc = dynamic_cast<BCache *>(&cache))
        r.pd = bc->pdStats();
    if (auto *vc = dynamic_cast<VictimCache *>(&cache))
        r.victimHits = vc->victimHits();
    r.observer = std::move(observer);
    return r;
}

/** Feed @p window through @p cache in batches of outs.size(). */
void
feed(BaseCache &cache, std::span<const MemAccess> window,
     std::vector<AccessOutcome> &outs)
{
    for (std::size_t i = 0; i < window.size(); i += outs.size()) {
        const std::size_t n = std::min(outs.size(), window.size() - i);
        cache.accessBatch(window.subspan(i, n), outs.data());
    }
}

/**
 * Independent reference for the dm checks: a 16 kB direct-mapped
 * write-back, write-allocate cache with 32 B lines, started cold.
 */
class RefDirectMapped
{
  public:
    void
    access(std::span<const MemAccess> window)
    {
        for (const MemAccess &a : window) {
            const Addr block = a.addr >> 5;
            Line &l = lines_[block & 511];
            if (!l.valid || l.block != block) {
                ++misses;
                writebacks += l.valid && l.dirty;
                l = Line{block, true, false};
            }
            l.dirty = l.dirty || a.type == AccessType::Write;
        }
    }

    /** Empty every line, keeping the counts (a cold start). */
    void invalidate() { lines_.assign(lines_.size(), Line{}); }

    /** Empty when @p s agrees, else what differs. */
    std::string
    mismatch(const CacheStats &s) const
    {
        if (s.misses == misses && s.writebacks == writebacks)
            return {};
        return "misses/writebacks " + std::to_string(s.misses) + "/" +
               std::to_string(s.writebacks) + ", reference " +
               std::to_string(misses) + "/" + std::to_string(writebacks);
    }

    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr block = 0;
        bool valid = false;
        bool dirty = false;
    };
    std::vector<Line> lines_ = std::vector<Line>(512);
};

// ---- counters a traced round collects besides spans ----

struct LayerCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t victimProbes = 0;
    std::uint64_t pdHitCacheMiss = 0;
    std::uint64_t pdMiss = 0;
    std::uint64_t pdReprograms = 0;
    /** Accesses per accessBatch span name (for ns/access). */
    std::map<std::string, std::uint64_t> accessesBySpan;

    void
    addCache(const CacheStats &s, const CacheConfig &cfg)
    {
        accesses += s.accesses;
        misses += s.misses;
        writebacks += s.writebacks;
        accessesBySpan[accessSpanName(cfg)] += s.accesses;
    }

    void
    merge(const LayerCounters &c)
    {
        accesses += c.accesses;
        misses += c.misses;
        writebacks += c.writebacks;
        victimHits += c.victimHits;
        victimProbes += c.victimProbes;
        pdHitCacheMiss += c.pdHitCacheMiss;
        pdMiss += c.pdMiss;
        pdReprograms += c.pdReprograms;
        for (const auto &[k, v] : c.accessesBySpan)
            accessesBySpan[k] += v;
    }

    void
    addSide(const BaseCache &cache)
    {
        if (auto *bc = dynamic_cast<const BCache *>(&cache)) {
            pdHitCacheMiss += bc->pdStats().pdHitCacheMiss;
            pdMiss += bc->pdStats().pdMiss;
        }
        if (auto *vc = dynamic_cast<const VictimCache *>(&cache)) {
            victimHits += vc->victimHits();
            victimProbes += vc->victimProbes();
        }
    }
};

/** One timed job's results, rebuilt outside runTimed(). */
struct TimedSlot
{
    TimedResult result;
    std::uint64_t offchip = 0;
    LayerCounters counters; ///< L1I + L1D
};

/**
 * The loop of runTimed(), rebuilt from public calls with spans around
 * the hierarchy build, the program build and OooCore::run.
 */
void
runTimedTraced(const std::string &name, const CacheConfig &cfg,
               std::uint64_t uops, std::uint64_t seed, SpanLog &log,
               std::int32_t parent, TimedSlot &slot)
{
    std::optional<CacheHierarchy> hier;
    {
        Scope s(log, "cache.build", parent);
        hier.emplace(HierarchyParams{});
        hier->setL1I(cfg.build("L1I", 1, nullptr));
        hier->setL1D(cfg.build("L1D", 1, nullptr));
    }
    std::optional<SyntheticProgram> program;
    {
        Scope s(log, "workload.build", parent);
        program.emplace(makeSpecWorkload(name, seed), seed ^ 0xc0ffee);
    }
    OooCore core(CoreParams{}, *hier);
    CpuResult cpu;
    {
        Scope s(log, "cpu.run", parent);
        cpu = core.run(*program, uops);
    }
    TimedResult &r = slot.result;
    r.workload = name;
    r.config = cfg.label;
    r.cpu = cpu;
    r.l1i = hier->l1i().stats();
    r.l1d = hier->l1d().stats();
    r.l2 = hier->l2().stats();
    slot.offchip = hier->memory().totalAccesses();
    for (BaseCache *c : {&hier->l1i(), &hier->l1d()}) {
        slot.counters.addCache(c->stats(), cfg);
        slot.counters.addSide(*c);
    }
}

// ---- one measured round ----

struct Round
{
    std::vector<SweepOutcome> outcomes;
    /** Checked digests (per job, or per document); nullopt = failed. */
    std::vector<std::optional<std::uint64_t>> digests;
    std::uint64_t events = 0;
    double wall = 0.0;       ///< whole round, export included
    double jobSeconds = 0.0; ///< sum of SweepOutcome::seconds
    double mf8RedPct = 0.0;  ///< simulated; see README.md
};

/** Per-layer inputs a traced round leaves behind. */
struct TracedRound
{
    Round round;
    std::vector<SpanLog> logs; ///< one per job, then the main thread's
    LayerCounters counters;
    std::vector<TimedSlot> timed; ///< timed_ipc only
};

/** Every traced round of a run: counters and span totals summed. */
struct TracedRun
{
    TracedRound last;
    LayerCounters counters;
    std::uint64_t rounds = 0;
    std::map<std::string, SpanTotals> totals;

    void
    add(TracedRound t)
    {
        counters.merge(t.counters);
        ++rounds;
        for (const auto &[k, v] : totalsByName(t.logs)) {
            SpanTotals &s = totals[k];
            s.count += v.count;
            s.seconds += v.seconds;
            s.selfSeconds += v.selfSeconds;
        }
        last = std::move(t);
    }

    /** Total seconds of the spans called @p name. */
    double
    seconds(const char *name) const
    {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.seconds;
    }

    /** Mean seconds per span called @p name. */
    double
    meanSeconds(const char *name) const
    {
        auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : ratio(it->second.seconds, double(it->second.count));
    }
};

std::vector<std::uint64_t>
presentDigests(const Round &r)
{
    std::vector<std::uint64_t> out;
    for (const auto &d : r.digests)
        out.push_back(d.value_or(0));
    return out;
}

/** One pass of @p jobs on the sweep pool; wall time is the caller's. */
Round
runJobs(const std::vector<SweepJob> &jobs, unsigned workers)
{
    SweepOptions opts;
    opts.jobs = workers;
    Round r;
    r.outcomes = runSweep(jobs, opts).outcomes;
    for (const SweepOutcome &o : r.outcomes)
        r.jobSeconds += o.seconds;
    return r;
}

/**
 * Run body(i, log) in place of job i of @p like, as custom jobs on the
 * sweep pool. The round gets one span log per job, then one for the
 * main thread; wall time and digests are the caller's.
 */
TracedRound
runTracedJobs(const std::vector<SweepJob> &like, unsigned workers,
              const std::function<std::uint64_t(std::size_t, SpanLog &)>
                  &body)
{
    TracedRound t;
    for (std::size_t i = 0; i <= like.size(); ++i)
        t.logs.emplace_back(static_cast<std::uint32_t>(i));
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < like.size(); ++i)
        jobs.push_back(SweepJob::customJob(
            like[i].workload + "/" + like[i].config.label,
            [&body, &t, i](std::uint64_t) { return body(i, t.logs[i]); }));
    t.round = runJobs(jobs, workers);
    return t;
}

// ---- the per-layer metric set ----

struct LayerValue
{
    double value = 0.0;
    const char *source = "loop"; ///< loop, setup or probe (README.md)
};

using LayerMap = std::map<std::string, LayerValue>;

/** Per-layer numbers every workload derives from the same probes. */
struct Probe
{
    std::vector<std::vector<MemAccess>> dataWindows; ///< per workload
    double genSeconds = 0.0;
    std::uint64_t genAccesses = 0;
};

/**
 * Generation-only pass over the 26 data streams; the buffers feed the
 * cache and observer probes so generation stays out of their timings.
 */
Probe
probeGenerate(std::uint64_t seed, SpanLog &log, std::int32_t parent)
{
    Probe p;
    for (const std::string &name : spec2kNames()) {
        SpecWorkload wl = makeSpecWorkload(name, seed);
        std::vector<MemAccess> buf(kProbeAccesses);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < buf.size(); i += 1024) {
            Scope s(log, "workload.gen", parent);
            wl.data->nextBatch(buf.data() + i,
                               std::min<std::size_t>(1024, buf.size() - i));
        }
        p.genSeconds += secondsSince(t0);
        p.genAccesses += buf.size();
        p.dataWindows.push_back(std::move(buf));
    }
    return p;
}

/** Standalone accessBatch cost per cache family over @p windows. */
void
probeCaches(const std::vector<std::vector<MemAccess>> &windows,
            LayerMap &m, SpanLog &log, std::int32_t parent)
{
    std::map<std::string, double> secs;
    std::map<std::string, std::uint64_t> accs;
    std::vector<AccessOutcome> outs(defaultBatchLen());
    for (const char *spec :
         {"dm:16kB", "sa:16kB,2w", "sa:16kB,4w", "sa:16kB,8w",
          "dm:16kB+victim:16", "bcache:16kB,mf=8,bas=8"}) {
        const CacheConfig cfg = parseCacheSpec(spec);
        const char *span = accessSpanName(cfg);
        for (const auto &w : windows) {
            auto cache = cfg.build(cfg.label, 1, nullptr);
            const auto t0 = Clock::now();
            {
                Scope s(log, span, parent);
                feed(*cache, w, outs);
            }
            secs[span] += secondsSince(t0);
            accs[span] += w.size();
        }
    }
    auto put = [&](const char *metric, const char *span) {
        m[metric] = {1e9 * ratio(secs[span], double(accs[span])), "probe"};
    };
    put("cache.ns_per_acc.dm", "cache.access.dm");
    put("cache.ns_per_acc.sa", "cache.access.sa");
    put("cache.ns_per_acc.victim", "cache.access.victim");
    put("bcache.ns_per_acc", "bcache.access");
}

/** Write a small BST2 trace of @p windows and time opening + reading. */
void
probeTrace(const std::vector<std::vector<MemAccess>> &windows,
           const std::string &path, LayerMap &m, SpanLog &log,
           std::int32_t parent)
{
    {
        Bst2Writer w(path);
        for (const auto &win : windows)
            w.append(std::span<const MemAccess>(win).first(
                std::min<std::size_t>(win.size(), kProbeTraceRecords)));
        w.finish();
    }
    double open_s = 0.0, next_s = 0.0;
    std::uint64_t opens = 0, records = 0, sink = 0;
    for (const TraceShard &shard : shardTrace(path, 8)) {
        auto t0 = Clock::now();
        TraceReaderPtr reader;
        {
            Scope s(log, "workload.trace.open", parent);
            reader = openTraceReader(path, shard);
        }
        open_s += secondsSince(t0);
        ++opens;
        t0 = Clock::now();
        for (;;) {
            Scope s(log, "workload.trace.next", parent);
            const auto span = reader->nextSpan(defaultBatchLen());
            if (span.empty())
                break;
            records += span.size();
            sink += span.back().addr;
        }
        next_s += secondsSince(t0);
    }
    fs::remove(path);
    g_sink = sink;
    m["workload.trace.ns_per_rec"] = {1e9 * ratio(next_s, double(records)),
                                      "probe"};
    m["workload.trace.open_ms"] = {1e3 * ratio(open_s, double(opens)),
                                   "probe"};
}

/** Generation-only SyntheticProgram::next pass; returns ns per µop. */
double
probeUops(std::uint64_t seed, SpanLog &log, std::int32_t parent)
{
    double secs = 0.0;
    std::uint64_t uops = 0, sink = 0;
    for (const std::string &name : spec2kNames()) {
        SyntheticProgram prog(makeSpecWorkload(name, seed), seed ^ 0xc0ffee);
        const auto t0 = Clock::now();
        {
            Scope s(log, "workload.uop", parent);
            for (std::uint64_t i = 0; i < kProbeUops; ++i)
                sink += prog.next().mem;
        }
        secs += secondsSince(t0);
        uops += kProbeUops;
    }
    g_sink = sink;
    return 1e9 * ratio(secs, double(uops));
}

/**
 * cpu and mem metrics from timed slots: dm vs the MF8 B-Cache per
 * workload for the IPC gain, sums over every slot for the rest.
 */
void
cpuMetrics(const std::vector<TimedSlot> &slots, double run_seconds,
           const char *source, LayerMap &m)
{
    std::uint64_t uops = 0, cycles = 0, icache = 0, load = 0, mispred = 0;
    std::uint64_t l2a = 0, l2m = 0, offchip = 0, l1dwb = 0;
    std::map<std::string, double> dm_ipc, mf8_ipc;
    static const std::string dm = parseCacheSpec("dm:16kB").label;
    static const std::string mf8 =
        parseCacheSpec("bcache:16kB,mf=8,bas=8").label;
    for (const TimedSlot &s : slots) {
        const TimedResult &r = s.result;
        uops += r.cpu.uops;
        cycles += r.cpu.cycles;
        icache += r.cpu.icacheStallCycles;
        load += r.cpu.loadMissCycles;
        mispred += r.cpu.mispredictCycles;
        l2a += r.l2.accesses;
        l2m += r.l2.misses;
        offchip += s.offchip;
        l1dwb += r.l1d.writebacks;
        if (r.config == dm)
            dm_ipc[r.workload] = r.ipc();
        else if (r.config == mf8)
            mf8_ipc[r.workload] = r.ipc();
    }
    RunningStat gain;
    for (const auto &[name, base] : dm_ipc)
        if (auto it = mf8_ipc.find(name); it != mf8_ipc.end() && base > 0)
            gain.add(100.0 * (it->second - base) / base);
    const double u = double(uops);
    m["cpu.ns_per_uop"] = {1e9 * ratio(run_seconds, u), source};
    m["cpu.ipc"] = {ratio(u, double(cycles)), source};
    m["cpu.ipc_gain_pct"] = {gain.mean(), source};
    m["cpu.cpi.icache_stall"] = {ratio(double(icache), u), source};
    m["cpu.cpi.load_miss"] = {ratio(double(load), u), source};
    m["cpu.cpi.mispredict"] = {ratio(double(mispred), u), source};
    m["mem.l2.miss_ratio"] = {ratio(double(l2m), double(l2a)), source};
    m["mem.offchip_per_kuop"] = {1e3 * ratio(double(offchip), u), source};
    m["cache.l1d.writebacks_per_kuop"] = {1e3 * ratio(double(l1dwb), u),
                                          source};
}

/** Short timed runs (dm and MF8 per workload) for non-timed workloads. */
void
probeCpu(std::uint64_t seed, LayerMap &m, SpanLog &log,
         std::int32_t parent)
{
    const CacheConfig dm = parseCacheSpec("dm:16kB");
    const CacheConfig mf8 = parseCacheSpec("bcache:16kB,mf=8,bas=8");
    std::vector<TimedSlot> slots;
    for (const std::string &name : spec2kNames())
        for (const CacheConfig *cfg : {&dm, &mf8}) {
            slots.emplace_back();
            runTimedTraced(name, *cfg, kProbeCpuUops, seed, log, parent,
                           slots.back());
        }
    cpuMetrics(slots, totalsByName({log})["cpu.run"].seconds, "probe", m);
}

/**
 * The same windows through the same caches with and without
 * attachObserver (legs alternate which runs first). Fills the observe.*
 * metrics and, from the observed results' stats documents, sim.report.*.
 */
struct ObserveAb
{
    double offSeconds = 0.0;
    double onSeconds = 0.0;
    double harvestSeconds = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t runs = 0;
    std::uint64_t pdReprograms = 0;
    std::vector<MissRateResult> observed;
};

ObserveAb
observeAb(const std::vector<CacheConfig> &cfgs,
          const std::vector<std::span<const MemAccess>> &windows,
          SpanLog &log, std::int32_t parent)
{
    ObserveAb ab;
    std::vector<AccessOutcome> outs(defaultBatchLen());
    ObserverConfig on;
    on.enabled = true;
    std::size_t k = 0;
    for (const CacheConfig &cfg : cfgs)
        for (const auto &w : windows) {
            for (int leg = 0; leg < 2; ++leg) {
                const bool observed = (leg + k) % 2 == 1;
                auto cache = cfg.build(cfg.label, 1, nullptr);
                if (!observed) {
                    const auto t0 = Clock::now();
                    Scope s(log, "observe.off", parent);
                    feed(*cache, w, outs);
                    ab.offSeconds += secondsSince(t0);
                    continue;
                }
                auto t0 = Clock::now();
                std::unique_ptr<StatsObserver> obs;
                {
                    Scope s(log, "observe.on", parent);
                    obs = attachObserver(*cache, on);
                    feed(*cache, w, outs);
                }
                ab.onSeconds += secondsSince(t0);
                t0 = Clock::now();
                std::optional<ObserverReport> rep;
                {
                    Scope s(log, "observe.harvest", parent);
                    rep = harvestObserver(obs.get(), *cache);
                }
                ab.harvestSeconds += secondsSince(t0);
                if (rep)
                    ab.pdReprograms += rep->pdReprograms;
                ab.observed.push_back(
                    resultOf(*cache, "probe", cfg.label, std::move(rep)));
            }
            ab.accesses += w.size();
            ++ab.runs;
            ++k;
        }
    return ab;
}

void
observeMetrics(const ObserveAb &ab, LayerMap &m, const char *source)
{
    m["observe.overhead_ns_per_acc"] = {
        1e9 * ratio(ab.onSeconds - ab.offSeconds, double(ab.accesses)),
        source};
    m["observe.harvest_ms"] = {1e3 * ratio(ab.harvestSeconds,
                                           double(ab.runs)),
                               source};
}

/** sim.report.* from toStatsJson over @p results. */
void
reportMetrics(const std::vector<MissRateResult> &results, LayerMap &m,
              SpanLog &log, std::int32_t parent, const char *source)
{
    double secs = 0.0;
    std::uint64_t bytes = 0;
    for (const MissRateResult &r : results) {
        const auto t0 = Clock::now();
        Scope s(log, "sim.report.json", parent);
        bytes += toStatsJson(r, "workload").size();
        secs += secondsSince(t0);
    }
    const double n = double(results.size());
    m["sim.report.json_ms"] = {1e3 * ratio(secs, n), source};
    m["sim.report.json_bytes"] = {ratio(double(bytes), n), source};
}

/**
 * Cache-layer ns/access over every traced round, and counts per round
 * (every round simulates exactly the same accesses).
 */
void
cacheLoopMetrics(const TracedRun &run, LayerMap &m, bool with_ns)
{
    const LayerCounters &all = run.counters;
    auto nsPer = [&](const char *span) {
        auto a = all.accessesBySpan.find(span);
        if (a == all.accessesBySpan.end())
            return 0.0;
        return 1e9 * ratio(run.seconds(span), double(a->second));
    };
    const double n = double(std::max<std::uint64_t>(run.rounds, 1));
    LayerCounters c = all;
    for (std::uint64_t *v :
         {&c.accesses, &c.misses, &c.writebacks, &c.victimHits,
          &c.victimProbes, &c.pdHitCacheMiss, &c.pdMiss, &c.pdReprograms})
        *v = static_cast<std::uint64_t>(double(*v) / n);
    if (with_ns) {
        m["cache.ns_per_acc.dm"] = {nsPer("cache.access.dm")};
        m["cache.ns_per_acc.sa"] = {nsPer("cache.access.sa")};
        m["cache.ns_per_acc.victim"] = {nsPer("cache.access.victim")};
        m["bcache.ns_per_acc"] = {nsPer("bcache.access")};
    }
    m["cache.accesses"] = {double(c.accesses)};
    m["cache.misses"] = {double(c.misses)};
    m["cache.miss_ratio"] = {ratio(double(c.misses), double(c.accesses))};
    m["cache.writebacks"] = {double(c.writebacks)};
    m["cache.victim.hit_ratio"] = {
        ratio(double(c.victimHits), double(c.victimProbes))};
    m["bcache.pd_hit_ratio"] = {
        ratio(double(c.pdHitCacheMiss),
              double(c.pdHitCacheMiss + c.pdMiss))};
    m["cache.build_us"] = {1e6 * run.meanSeconds("cache.build")};
    m["bcache.pd_reprograms"] = {double(c.pdReprograms)};
}

// ---- workloads ----

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;
    /** Human description of one round's size, for the provenance line. */
    virtual std::string runLength() const = 0;
    /** Everything before the first timed job; may run several times. */
    virtual void setup(SpanLog *log) = 0;
    virtual Round runRound(unsigned workers) = 0;
    virtual TracedRound runTracedRound(unsigned workers) = 0;
    /**
     * Per-layer metrics of this workload's loop from @p run, and from
     * the probes (spans in @p log) for the layers its loop does not reach.
     */
    virtual LayerMap layerMetrics(const TracedRun &run, SpanLog &log) = 0;
    /**
     * Independent checks of the last untraced round (reference model,
     * invariants). Returns failure messages; empty when all hold.
     */
    virtual std::vector<std::string> check(const Round &last) = 0;
};

/** The Figure 4 grid: 26 data streams x 10 caches, standalone. */
class GridWorkload : public Workload
{
  public:
    explicit GridWorkload(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "dcache_grid"; }

    std::string
    runLength() const override
    {
        return std::to_string(kGridAccesses) + " accesses/job x " +
               std::to_string(jobs_.size()) + " jobs/round";
    }

    void
    setup(SpanLog *) override
    {
        configs_ = {parseCacheSpec("dm:16kB")};
        for (CacheConfig &c : figure4Configs(16 * 1024))
            configs_.push_back(std::move(c));
        mf8_ = configs_.size();
        for (std::size_t i = 0; i < configs_.size(); ++i)
            if (configs_[i].kind == CacheKind::BCache && configs_[i].mf == 8)
                mf8_ = i;
        if (mf8_ == configs_.size())
            bsim_fatal("figure4Configs() has no MF8 B-Cache");
        jobs_.clear();
        for (const std::string &name : spec2kNames())
            for (const CacheConfig &c : configs_)
                jobs_.push_back(SweepJob::missRate(name, StreamSide::Data,
                                                   c, kGridAccesses, seed_));
        // Warm-up: every generator and every cache organisation once.
        std::vector<MemAccess> buf(kProbeAccesses);
        std::vector<AccessOutcome> outs(defaultBatchLen());
        for (const std::string &name : spec2kNames()) {
            SpecWorkload wl = makeSpecWorkload(name, seed_);
            wl.data->nextBatch(buf.data(), buf.size());
        }
        for (const CacheConfig &c : configs_)
            feed(*c.build(c.label, 1, nullptr), buf, outs);
    }

    Round
    runRound(unsigned workers) override
    {
        const auto t0 = Clock::now();
        Round r = runJobs(jobs_, workers);
        r.wall = secondsSince(t0);
        std::vector<const MissRateResult *> results;
        for (const SweepOutcome &o : r.outcomes)
            results.push_back(o.ok() ? &*o.miss : nullptr);
        finish(r, results);
        return r;
    }

    TracedRound
    runTracedRound(unsigned workers) override
    {
        std::vector<MissRateResult> slots(jobs_.size());
        std::vector<LayerCounters> counters(jobs_.size());
        const auto t0 = Clock::now();
        TracedRound t = runTracedJobs(
            jobs_, workers, [&](std::size_t i, SpanLog &log) {
                return tracedJob(jobs_[i], log, slots[i], counters[i]);
            });
        t.round.wall = secondsSince(t0);
        std::vector<const MissRateResult *> results;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const bool ok = t.round.outcomes[i].ok();
            results.push_back(ok ? &slots[i] : nullptr);
            if (ok)
                t.counters.merge(counters[i]);
        }
        finish(t.round, results);
        return t;
    }

    LayerMap
    layerMetrics(const TracedRun &run, SpanLog &log) override
    {
        LayerMap m;
        m["workload.gen.ns_per_acc"] = {
            1e9 * ratio(run.seconds("workload.gen"),
                        double(run.counters.accesses))};
        m["workload.gen.busy_frac"] = {
            ratio(run.seconds("workload.gen"), run.seconds("job"))};
        cacheLoopMetrics(run, m, true);

        const std::int32_t root = log.open("probe");
        Probe p = probeGenerate(seed_, log, root);
        probeTrace(p.dataWindows, "probe.bst", m, log, root);
        m["workload.uop.ns_per_uop"] = {probeUops(seed_, log, root),
                                        "probe"};
        probeCpu(seed_, m, log, root);
        std::vector<std::span<const MemAccess>> windows(
            p.dataWindows.begin(), p.dataWindows.end());
        const ObserveAb ab = observeAb(
            {configs_.front(), configs_[mf8_]}, windows, log, root);
        observeMetrics(ab, m, "probe");
        m["bcache.pd_reprograms"] = {double(ab.pdReprograms), "probe"};
        reportMetrics(ab.observed, m, log, root, "probe");
        log.close(root);
        return m;
    }

    std::vector<std::string>
    check(const Round &last) override
    {
        // Every dm job against the reference model.
        std::vector<std::string> bad;
        std::vector<MemAccess> buf(4096);
        const auto &names = spec2kNames();
        for (std::size_t w = 0; w < names.size(); ++w) {
            const SweepOutcome &o = last.outcomes[w * configs_.size()];
            if (!o.ok())
                continue; // already counted as a failed job
            SpecWorkload wl = makeSpecWorkload(names[w], seed_);
            RefDirectMapped ref;
            for (std::uint64_t left = kGridAccesses; left > 0;) {
                const std::size_t n =
                    std::min<std::uint64_t>(left, buf.size());
                wl.data->nextBatch(buf.data(), n);
                ref.access({buf.data(), n});
                left -= n;
            }
            if (auto why = ref.mismatch(o.miss->stats); !why.empty())
                bad.push_back(names[w] + ": dm " + why);
        }
        return bad;
    }

  private:
    std::uint64_t
    tracedJob(const SweepJob &job, SpanLog &log, MissRateResult &out,
              LayerCounters &counters)
    {
        Scope js(log, "job");
        std::optional<SpecWorkload> wl;
        {
            Scope s(log, "workload.build", js.index());
            wl.emplace(makeSpecWorkload(job.workload, seed_));
        }
        std::unique_ptr<BaseCache> cache;
        {
            Scope s(log, "cache.build", js.index());
            cache = job.config.build(job.config.label, 1, nullptr);
        }
        const char *access = accessSpanName(job.config);
        const std::size_t batch = std::max<std::size_t>(defaultBatchLen(),
                                                        1);
        std::vector<MemAccess> reqs(batch);
        std::vector<AccessOutcome> outs(batch);
        for (std::uint64_t left = job.length; left > 0;) {
            const std::size_t n = std::min<std::uint64_t>(left, batch);
            {
                Scope s(log, "workload.gen", js.index());
                wl->data->nextBatch(reqs.data(), n);
            }
            {
                Scope s(log, access, js.index());
                cache->accessBatch({reqs.data(), n}, outs.data());
            }
            left -= n;
        }
        out = resultOf(*cache, job.workload, job.config.label);
        counters.addCache(cache->stats(), job.config);
        counters.addSide(*cache);
        return job.length;
    }

    /**
     * Digests, events and the suite-average MF8 miss-rate reduction over
     * dm of one round's results (null: the job failed).
     */
    void
    finish(Round &r, const std::vector<const MissRateResult *> &results)
        const
    {
        for (const MissRateResult *m : results) {
            r.digests.push_back(m ? std::optional(digestMissRate(*m))
                                  : std::nullopt);
            r.events += m ? m->stats.accesses : 0;
        }
        RunningStat avg;
        const std::size_t stride = configs_.size();
        for (std::size_t w = 0; w * stride < results.size(); ++w) {
            const MissRateResult *dm = results[w * stride];
            const MissRateResult *mf8 = results[w * stride + mf8_];
            if (dm && mf8)
                avg.add(reductionPct(dm->missRate(), mf8->missRate()));
        }
        r.mf8RedPct = avg.mean();
    }

    std::uint64_t seed_;
    std::vector<CacheConfig> configs_;
    std::size_t mf8_ = 0;
    std::vector<SweepJob> jobs_;
};

/**
 * The shape of `bsim --stats-json` over a sharded trace: one BST2 file
 * of the 26 instruction streams, 8 caches x 13 shards, observer on, one
 * stats document per cache.
 */
class TraceWorkload : public Workload
{
  public:
    explicit TraceWorkload(std::uint64_t seed) : seed_(seed) {}

    ~TraceWorkload() override
    {
        std::error_code ec;
        if (!tracePath_.empty())
            fs::remove(tracePath_, ec);
    }
    TraceWorkload(const TraceWorkload &) = delete;
    TraceWorkload &operator=(const TraceWorkload &) = delete;

    const char *name() const override { return "trace_observed"; }

    std::string
    runLength() const override
    {
        return std::to_string(records_) + "-record trace x " +
               std::to_string(specs_.size()) + " caches x " +
               std::to_string(kTraceShards) + " shards = " +
               std::to_string(jobs_.size()) + " jobs/round";
    }

    void
    setup(SpanLog *log) override
    {
        // The caller has made the temp dir the working directory, so the
        // documents name the trace "inst.bst" wherever the run happens.
        std::optional<Scope> root;
        if (log)
            root.emplace(*log, "setup");
        const std::int32_t parent = root ? root->index() : -1;
        handle_.reset();
        {
            Bst2Writer w(kTraceFile);
            std::vector<MemAccess> buf(defaultBatchLen());
            for (const std::string &name : spec2kNames()) {
                SpecWorkload wl = makeSpecWorkload(name, seed_);
                for (std::uint64_t left = kTraceRecordsPerWorkload;
                     left > 0;) {
                    const std::size_t n =
                        std::min<std::uint64_t>(left, buf.size());
                    if (log) {
                        Scope s(*log, "workload.gen", parent);
                        wl.inst->nextBatch(buf.data(), n);
                    } else {
                        wl.inst->nextBatch(buf.data(), n);
                    }
                    w.append(std::span<const MemAccess>(buf.data(), n));
                    left -= n;
                    if (log)
                        genAccesses_ += n;
                }
            }
            w.finish();
            records_ = w.recordsWritten();
        }
        tracePath_ = fs::absolute(kTraceFile);
        // Warm the page cache: every replay then reads resident pages.
        {
            std::ifstream in(kTraceFile, std::ios::binary);
            std::vector<char> chunk(1 << 20);
            while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
            }
        }
        handle_ = openTraceHandle(kTraceFile);
        windows_ = shardTrace(kTraceFile, kTraceShards);
        configs_.clear();
        jobs_.clear();
        ObserverConfig observe;
        observe.enabled = true;
        for (const char *spec : specs_) {
            configs_.push_back(parseCacheSpec(spec));
            for (const TraceShard &w : windows_) {
                jobs_.push_back(SweepJob::traceReplay(
                    kTraceFile, w, configs_.back(), 0, 0, observe));
                jobs_.back().traceHandle = handle_;
            }
        }
    }

    Round
    runRound(unsigned workers) override
    {
        const auto t0 = Clock::now();
        Round r = runJobs(jobs_, workers);
        std::vector<const MissRateResult *> results;
        for (const SweepOutcome &o : r.outcomes)
            results.push_back(o.ok() ? &*o.miss : nullptr);
        exportDocs(results, nullptr);
        r.wall = secondsSince(t0);
        finish(r, results);
        return r;
    }

    TracedRound
    runTracedRound(unsigned workers) override
    {
        std::vector<MissRateResult> slots(jobs_.size());
        std::vector<LayerCounters> counters(jobs_.size());
        const auto t0 = Clock::now();
        TracedRound t = runTracedJobs(
            jobs_, workers, [&](std::size_t i, SpanLog &log) {
                return tracedJob(i, log, slots[i], counters[i]);
            });
        std::vector<const MissRateResult *> results;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const bool ok = t.round.outcomes[i].ok();
            results.push_back(ok ? &slots[i] : nullptr);
            if (ok)
                t.counters.merge(counters[i]);
        }
        exportDocs(results, &t.logs.back());
        t.round.wall = secondsSince(t0);
        finish(t.round, results);
        return t;
    }

    LayerMap
    layerMetrics(const TracedRun &run, SpanLog &log) override
    {
        LayerMap m;
        // The generator runs only in set-up here, which writes the trace.
        genAccesses_ = 0;
        SpanLog setup_log(static_cast<std::uint32_t>(run.last.logs.size()));
        setup(&setup_log);
        const auto st = totalsByName({setup_log});
        m["workload.gen.ns_per_acc"] = {
            1e9 * ratio(st.at("workload.gen").seconds, double(genAccesses_)),
            "setup"};
        m["workload.gen.busy_frac"] = {
            ratio(st.at("workload.gen").seconds, st.at("setup").seconds),
            "setup"};
        m["workload.trace.ns_per_rec"] = {
            1e9 * ratio(run.seconds("workload.trace.next"),
                        double(run.counters.accesses))};
        m["workload.trace.open_ms"] = {
            1e3 * run.meanSeconds("workload.trace.open")};
        cacheLoopMetrics(run, m, true);
        m["sim.report.json_ms"] = {1e3 * run.meanSeconds("sim.report.json")};
        RunningStat bytes;
        for (const auto &doc : lastDocs_)
            if (doc)
                bytes.add(double(doc->size()));
        m["sim.report.json_bytes"] = {bytes.mean()};

        const std::int32_t root = log.open("probe");
        // Observer A/B over the first shard's window, read into memory
        // so both legs see the same records at the same cost.
        std::vector<MemAccess> window;
        {
            TraceReaderPtr reader = openTraceReader(handle_, windows_[0]);
            for (auto s = reader->nextSpan(65536); !s.empty();
                 s = reader->nextSpan(65536))
                window.insert(window.end(), s.begin(), s.end());
        }
        const ObserveAb ab = observeAb(configs_, {window}, log, root);
        observeMetrics(ab, m, "probe");
        // Every replay job harvests its own observer: use those.
        m["observe.harvest_ms"] = {1e3 * run.meanSeconds("observe.harvest")};
        m["workload.uop.ns_per_uop"] = {probeUops(seed_, log, root),
                                        "probe"};
        probeCpu(seed_, m, log, root);
        log.close(root);
        return m;
    }

    std::vector<std::string>
    check(const Round &) override
    {
        std::vector<std::string> bad;
        // 1. The library's own sharded path gives the same documents.
        SweepOptions opts;
        TraceReplayOptions replay;
        replay.observe.enabled = true;
        replay.handle = handle_;
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            if (!lastDocs_[c])
                continue; // already counted as a failed job
            const std::string doc = toStatsJson(
                runTraceSharded(kTraceFile, configs_[c], kTraceShards, opts,
                                replay),
                std::string("trace:") + kTraceFile, configs_[c].label);
            if (doc != *lastDocs_[c])
                bad.push_back(configs_[c].label +
                              ": document differs from runTraceSharded's");
        }
        // 2. A reference direct-mapped cache, cold per shard, against
        // the dm document's merged counters.
        if (lastDocs_[0]) {
            RefDirectMapped ref;
            for (const TraceShard &w : windows_) {
                ref.invalidate();
                TraceReaderPtr reader = openTraceReader(handle_, w);
                for (auto s = reader->nextSpan(65536); !s.empty();
                     s = reader->nextSpan(65536))
                    ref.access(s);
            }
            if (auto why = ref.mismatch(lastMerged_[0].total); !why.empty())
                bad.push_back("dm: merged " + why);
        }
        return bad;
    }

  private:
    std::uint64_t
    tracedJob(std::size_t i, SpanLog &log, MissRateResult &out,
              LayerCounters &counters)
    {
        const std::size_t c = i / windows_.size();
        const TraceShard &shard = windows_[i % windows_.size()];
        Scope js(log, "job");
        CacheConfig cfg;
        std::unique_ptr<BaseCache> cache;
        {
            Scope s(log, "cache.build", js.index());
            cfg = parseCacheSpec(specs_[c]);
            cache = cfg.build(cfg.label, 1, nullptr);
        }
        std::unique_ptr<StatsObserver> obs;
        {
            Scope s(log, "observe.attach", js.index());
            obs = attachObserver(*cache, jobs_[i].observe);
        }
        TraceReaderPtr reader;
        {
            Scope s(log, "workload.trace.open", js.index());
            reader = openTraceReader(handle_, shard);
        }
        const char *access = accessSpanName(cfg);
        const std::size_t batch = std::max<std::size_t>(defaultBatchLen(),
                                                        1);
        std::vector<AccessOutcome> outs(batch);
        for (;;) {
            std::span<const MemAccess> s;
            {
                Scope sp(log, "workload.trace.next", js.index());
                s = reader->nextSpan(batch);
            }
            if (s.empty())
                break;
            Scope sp(log, access, js.index());
            cache->accessBatch(s, outs.data());
        }
        std::optional<ObserverReport> rep;
        {
            Scope s(log, "observe.harvest", js.index());
            rep = harvestObserver(obs.get(), *cache);
        }
        if (rep)
            counters.pdReprograms += rep->pdReprograms;
        // Session labels a shard "trace:<path>[<first>+<count>)".
        const std::string label =
            std::string("trace:") + kTraceFile + "[" +
            std::to_string(shard.firstRecord) + "+" +
            std::to_string(shard.recordCount) + ")";
        out = resultOf(*cache, label, cfg.label, std::move(rep));
        counters.addCache(cache->stats(), cfg);
        counters.addSide(*cache);
        return out.stats.accesses;
    }

    /**
     * Merge each cache's shards (null: the job failed) and export one
     * stats document per cache, the part of the run after the sweep.
     */
    void
    exportDocs(const std::vector<const MissRateResult *> &results,
               SpanLog *log)
    {
        lastMerged_.assign(configs_.size(), TraceSweepResult{});
        lastDocs_.assign(configs_.size(), std::nullopt);
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            TraceSweepResult &res = lastMerged_[c];
            for (std::size_t s = 0; s < windows_.size(); ++s) {
                const MissRateResult *m = results[c * windows_.size() + s];
                if (!m)
                    break;
                res.shards.push_back(*m);
            }
            if (res.shards.size() != windows_.size())
                continue;
            res.total = mergeShardStats(res.shards);
            for (const MissRateResult &s : res.shards)
                mergeSideCounters(res, s);
            std::optional<Scope> span;
            if (log)
                span.emplace(*log, "sim.report.json");
            lastDocs_[c] = toStatsJson(res, std::string("trace:") + kTraceFile,
                                       configs_[c].label);
        }
    }

    /** Digests of the exported documents, events, MF8 reduction. */
    void
    finish(Round &r, const std::vector<const MissRateResult *> &results)
        const
    {
        for (const MissRateResult *m : results)
            r.events += m ? m->stats.accesses : 0;
        for (const auto &doc : lastDocs_)
            r.digests.push_back(doc ? std::optional(digestBytes(*doc))
                                    : std::nullopt);
        if (lastDocs_[0] && lastDocs_[kMf8])
            r.mf8RedPct = reductionPct(lastMerged_[0].total.missRate(),
                                       lastMerged_[kMf8].total.missRate());
    }

    static constexpr std::size_t kMf8 = 5; ///< index in specs_
    const std::vector<const char *> specs_ = {
        "dm:16kB",           "sa:16kB,2w",
        "sa:16kB,4w",        "sa:16kB,8w",
        "bcache:16kB,mf=4,bas=8", "bcache:16kB,mf=8,bas=8",
        "bcache:16kB,mf=16,bas=8", "dm:16kB+victim:16",
    };
    std::uint64_t seed_;
    fs::path tracePath_; ///< removed on destruction
    std::uint64_t records_ = 0;
    std::uint64_t genAccesses_ = 0;
    TraceHandlePtr handle_;
    std::vector<TraceShard> windows_;
    std::vector<CacheConfig> configs_;
    std::vector<SweepJob> jobs_;
    /** The last round's merged results and documents, for check(). */
    std::vector<TraceSweepResult> lastMerged_;
    std::vector<std::optional<std::string>> lastDocs_;
};

/** The Figure 8 grid: 26 workloads x 6 L1s on the OOO core. */
class TimedWorkload : public Workload
{
  public:
    explicit TimedWorkload(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "timed_ipc"; }

    std::string
    runLength() const override
    {
        return std::to_string(kTimedUops) + " uops/job x " +
               std::to_string(jobs_.size()) + " jobs/round";
    }

    void
    setup(SpanLog *) override
    {
        configs_.clear();
        for (const char *spec :
             {"dm:16kB", "sa:16kB,2w", "sa:16kB,4w", "sa:16kB,8w",
              "bcache:16kB,mf=8,bas=8", "dm:16kB+victim:16"})
            configs_.push_back(parseCacheSpec(spec));
        jobs_.clear();
        for (const std::string &name : spec2kNames())
            for (const CacheConfig &c : configs_)
                jobs_.push_back(
                    SweepJob::timed(name, c, kTimedUops, seed_));
        // Warm-up: every program generator and every L1 organisation.
        std::uint64_t sink = 0;
        for (const std::string &name : spec2kNames()) {
            SyntheticProgram prog(makeSpecWorkload(name, seed_),
                                  seed_ ^ 0xc0ffee);
            for (int i = 0; i < 16384; ++i)
                sink += prog.next().mem;
        }
        for (const CacheConfig &c : configs_) {
            CacheHierarchy hier;
            hier.setL1I(c.build("L1I", 1, nullptr));
            hier.setL1D(c.build("L1D", 1, nullptr));
            sink += hier.load(sink).latency;
        }
        g_sink = sink;
    }

    Round
    runRound(unsigned workers) override
    {
        const auto t0 = Clock::now();
        Round r = runJobs(jobs_, workers);
        r.wall = secondsSince(t0);
        std::vector<const TimedResult *> results;
        for (const SweepOutcome &o : r.outcomes)
            results.push_back(o.ok() ? &*o.timed : nullptr);
        finish(r, results);
        return r;
    }

    TracedRound
    runTracedRound(unsigned workers) override
    {
        std::vector<TimedSlot> slots(jobs_.size());
        const auto t0 = Clock::now();
        TracedRound t = runTracedJobs(
            jobs_, workers, [&](std::size_t i, SpanLog &log) {
                Scope js(log, "job");
                runTimedTraced(jobs_[i].workload, jobs_[i].config,
                               jobs_[i].length, seed_, log, js.index(),
                               slots[i]);
                return slots[i].result.cpu.uops;
            });
        t.round.wall = secondsSince(t0);
        std::vector<const TimedResult *> results;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const bool ok = t.round.outcomes[i].ok();
            results.push_back(ok ? &slots[i].result : nullptr);
            if (ok)
                t.counters.merge(slots[i].counters);
        }
        finish(t.round, results);
        t.timed = std::move(slots);
        return t;
    }

    LayerMap
    layerMetrics(const TracedRun &run, SpanLog &log) override
    {
        LayerMap m;
        cacheLoopMetrics(run, m, false);
        std::vector<TimedSlot> ok;
        for (std::size_t i = 0; i < run.last.timed.size(); ++i)
            if (run.last.round.outcomes[i].ok())
                ok.push_back(run.last.timed[i]);
        // The slots are the last round's; the span total covers all.
        cpuMetrics(ok, run.seconds("cpu.run") / double(run.rounds), "loop",
                   m);

        const std::int32_t root = log.open("probe");
        Probe p = probeGenerate(seed_, log, root);
        m["workload.gen.ns_per_acc"] = {
            1e9 * ratio(p.genSeconds, double(p.genAccesses)), "probe"};
        const double uop_ns = probeUops(seed_, log, root);
        m["workload.uop.ns_per_uop"] = {uop_ns, "probe"};
        // Share of OooCore::run the generation-only pass accounts for.
        m["workload.gen.busy_frac"] = {
            ratio(uop_ns, m["cpu.ns_per_uop"].value), "probe"};
        probeCaches(p.dataWindows, m, log, root);
        probeTrace(p.dataWindows, "probe.bst", m, log, root);
        std::vector<std::span<const MemAccess>> windows(
            p.dataWindows.begin(), p.dataWindows.end());
        const ObserveAb ab = observeAb({configs_[0], configs_[kMf8]}, windows,
                                       log, root);
        observeMetrics(ab, m, "probe");
        m["bcache.pd_reprograms"] = {double(ab.pdReprograms), "probe"};
        reportMetrics(ab.observed, m, log, root, "probe");
        log.close(root);
        return m;
    }

    std::vector<std::string>
    check(const Round &last) override
    {
        std::vector<std::string> bad;
        for (const SweepOutcome &o : last.outcomes) {
            if (!o.ok())
                continue;
            const TimedResult &r = *o.timed;
            const std::string id = r.workload + "/" + r.config;
            if (r.cpu.uops != kTimedUops)
                bad.push_back(id + ": ran " + std::to_string(r.cpu.uops) +
                              " uops");
            // The core commits at most 4 µops per cycle.
            if (r.cpu.cycles * 4 < r.cpu.uops)
                bad.push_back(id + ": IPC above the commit width");
            std::uint64_t by_class = 0;
            for (const std::uint64_t c : r.cpu.perClass)
                by_class += c;
            if (by_class != r.cpu.uops)
                bad.push_back(id + ": per-class counts do not sum");
            for (const CacheStats *s : {&r.l1i, &r.l1d, &r.l2})
                if (s->hits + s->misses != s->accesses)
                    bad.push_back(id + ": hits + misses != accesses");
        }
        return bad;
    }

  private:
    /**
     * Digests, events and the suite-average L1D miss-rate reduction of
     * MF8 over dm of one round's results (null: the job failed).
     */
    void
    finish(Round &r, const std::vector<const TimedResult *> &results) const
    {
        for (const TimedResult *t : results) {
            r.digests.push_back(t ? std::optional(digestTimed(*t))
                                  : std::nullopt);
            r.events += t ? t->cpu.uops : 0;
        }
        RunningStat avg;
        const std::size_t stride = configs_.size();
        for (std::size_t w = 0; w * stride < results.size(); ++w) {
            const TimedResult *dm = results[w * stride];
            const TimedResult *mf8 = results[w * stride + kMf8];
            if (dm && mf8)
                avg.add(reductionPct(dm->l1d.missRate(),
                                     mf8->l1d.missRate()));
        }
        r.mf8RedPct = avg.mean();
    }

    static constexpr std::size_t kMf8 = 4; ///< index in setup()'s list
    std::uint64_t seed_;
    std::vector<CacheConfig> configs_;
    std::vector<SweepJob> jobs_;
};

// ---- command line and the run ----

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string tmpDir;
    std::string pinned;
    std::string spansOut;
    std::string pinOut;
    std::string gitRev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload dcache_grid|trace_observed|"
                 "timed_ipc --seed N --seconds S --trace 0|1\n"
                 "                 --tmp-dir DIR [--pinned FILE] "
                 "[--spans-out FILE] [--pin-out FILE] [--git-rev REV]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 0);
    if (v.empty() || *end || errno || v[0] == '-')
        usage("bad value '" + v + "' for " + flag);
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseCount(flag, v);
        else if (flag == "--seconds") {
            a.seconds = double(parseCount(flag, v));
            if (a.seconds < 1 || a.seconds > 600)
                usage("--seconds must be 1..600");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--tmp-dir")
            a.tmpDir = v;
        else if (flag == "--pinned")
            a.pinned = v;
        else if (flag == "--spans-out")
            a.spansOut = v;
        else if (flag == "--pin-out")
            a.pinOut = v;
        else if (flag == "--git-rev")
            a.gitRev = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.tmpDir.empty())
        usage("--tmp-dir is required");
    return a;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        bsim_fatal("cannot read '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
run(const Args &args)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min(nproc, kMaxWorkers);

    std::unique_ptr<Workload> wl;
    if (args.workload == "dcache_grid")
        wl = std::make_unique<GridWorkload>(args.seed);
    else if (args.workload == "trace_observed")
        wl = std::make_unique<TraceWorkload>(args.seed);
    else if (args.workload == "timed_ipc")
        wl = std::make_unique<TimedWorkload>(args.seed);
    else
        usage("unknown workload '" + args.workload + "'");

    // Pinned digests apply at the default seed only.
    std::optional<std::vector<std::uint64_t>> pinned;
    if (!args.pinned.empty() && args.seed == kDefaultSeed) {
        std::string err;
        const auto all = parsePinned(readFile(args.pinned), &err);
        if (!all)
            bsim_fatal("pinned digests '", args.pinned, "': ", err);
        if (auto it = all->find(args.workload); it != all->end())
            pinned = it->second;
    }
    const fs::path spans_out =
        args.spansOut.empty() ? fs::path() : fs::absolute(args.spansOut);
    const fs::path pin_out =
        args.pinOut.empty() ? fs::path() : fs::absolute(args.pinOut);
    const fs::path home = fs::current_path();
    // Traces, probes and their documents name files relative to the temp
    // dir, so stats documents are byte-identical wherever the run is.
    fs::current_path(args.tmpDir);

    // Set-up, several times; the median is setup_s.
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        wl->setup(nullptr);
        setups.push_back(secondsSince(t0));
    }

    std::printf("perfbench: workload=%s seed=%llu%s seconds=%g trace=%d\n",
                wl->name(), static_cast<unsigned long long>(args.seed),
                args.seed == kDefaultSeed ? " (default)" : "",
                args.seconds, args.trace ? 1 : 0);
    std::printf("provenance: git_rev=%s build_type=%s compiler=\"%s\" "
                "cpu=\"%s\" nproc=%u workers=%u observers=%s\n",
                args.gitRev.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
                cpuModel().c_str(), nproc, workers,
                kObserversEnabled ? "on" : "compiled-out");
    std::printf("run_length: %s, closed batch, cold caches per job, "
                "measured for >= %g s\n",
                wl->runLength().c_str(), args.seconds);

    ErrorTally tally;
    std::vector<std::string> problems; ///< first few job-level errors
    std::vector<std::string> checks;   ///< failed run-level checks
    std::optional<std::vector<std::uint64_t>> reference = pinned;
    auto account = [&](const Round &r, const char *what) {
        for (const SweepOutcome &o : r.outcomes)
            if (!o.ok() && problems.size() < 20)
                problems.push_back(std::string(what) + " job " +
                                   std::to_string(o.index) + " failed: " +
                                   o.error);
        // Without pins, the first round is the reference that later
        // rounds and the traced rounds must reproduce exactly.
        if (!reference)
            reference = presentDigests(r);
        for (const std::size_t i :
             accountRound(tally, r.outcomes, r.digests, &*reference))
            if (problems.size() < 20)
                problems.push_back(std::string(what) + " digest " +
                                   std::to_string(i) + " mismatch");
    };

    std::vector<double> job_ms;
    std::vector<double> round_eps;
    std::uint64_t events = 0;
    double wall = 0.0, busy = 0.0;
    Round last;
    std::uint64_t traced_events = 0;
    double traced_wall = 0.0;
    TracedRun traced;
    auto untraced = [&] {
        Round r = wl->runRound(workers);
        account(r, "untraced");
        for (const SweepOutcome &o : r.outcomes)
            job_ms.push_back(1e3 * o.seconds);
        events += r.events;
        wall += r.wall;
        busy += r.jobSeconds;
        round_eps.push_back(ratio(double(r.events), r.wall));
        last = std::move(r);
    };
    // Warm-up rounds, checked but not timed: idle cores take a moment
    // to reach full speed, and allocator arenas and page tables fill.
    const auto t_warm = Clock::now();
    do
        account(wl->runRound(workers), "warm-up");
    while (secondsSince(t_warm) < kWarmupSeconds);

    const auto t_run = Clock::now();
    for (std::uint64_t pair = 0;
         pair == 0 || secondsSince(t_run) < args.seconds; ++pair) {
        // Traced runs alternate which side of a pair goes first, so
        // drift during the run does not bias the tracing overhead.
        if (!args.trace || pair % 2 == 0)
            untraced();
        if (args.trace) {
            TracedRound t = wl->runTracedRound(workers);
            account(t.round, "traced");
            traced_events += t.round.events;
            traced_wall += t.round.wall;
            traced.add(std::move(t));
            if (pair % 2 == 1)
                untraced();
        }
    }

    if (!pin_out.empty()) {
        std::ofstream out(pin_out, std::ios::app);
        const std::vector<std::uint64_t> got = presentDigests(last);
        for (std::size_t i = 0; i < got.size(); ++i)
            out << wl->name() << ' ' << i << ' ' << hex64(got[i]) << '\n';
    }
    if (args.seed == kDefaultSeed && !pinned)
        checks.push_back("no pinned digests for " + args.workload +
                         " at the default seed");
    for (std::string &c : wl->check(last))
        checks.push_back(std::move(c));

    // ---- metrics ----
    std::vector<std::pair<const MetricDef *, double>> values;
    std::map<std::string, const char *> sources;
    auto put = [&](const char *name, double v) {
        for (const MetricDef &d : metricTable())
            if (name == std::string(d.name))
                values.emplace_back(&d, v);
    };
    if (!args.trace) {
        put("setup_s", median(setups));
        put("events_per_s", ratio(double(events), wall));
        put("job_p50_ms", percentile(job_ms, 50));
        put("job_p90_ms", percentile(job_ms, 90));
        put("peak_rss_mb", peakRssMb());
        put("bcache_mf8_red_pct", last.mf8RedPct);
    } else {
        SpanLog main_log(static_cast<std::uint32_t>(traced.last.logs.size()));
        LayerMap m = wl->layerMetrics(traced, main_log);
        m["sim.sweep.busy_frac"] = {ratio(busy, double(workers) * wall)};
        const double eps = ratio(double(events), wall);
        const double eps_traced = ratio(double(traced_events), traced_wall);
        m["bench.trace_overhead_frac"] = {ratio(eps, eps_traced) - 1.0};
        for (const MetricDef &d : metricTable()) {
            if (d.endToEnd)
                continue;
            auto it = m.find(d.name);
            if (it == m.end()) {
                checks.push_back(std::string("per-layer metric ") +
                                 d.name + " was not produced");
                continue;
            }
            put(d.name, it->second.value);
            sources[d.name] = it->second.source;
        }
        if (!spans_out.empty()) {
            std::vector<SpanLog> logs = std::move(traced.last.logs);
            logs.push_back(std::move(main_log));
            std::ofstream out(spans_out);
            out << spansCsv(logs, t_run);
        }
    }

    const bool correct = tally.errors() == 0 && checks.empty();
    const std::uint64_t failed = tally.errors() + checks.size();
    std::printf("jobs: %zu timed samples (highest tail percentile with "
                ">= 10 samples beyond it: p%g)\n"
                "error_rate: %.6g (%llu failed jobs + %llu digest "
                "mismatches + %zu failed checks of %llu jobs attempted)\n",
                job_ms.size(), highestTailPercentile(job_ms.size()),
                ratio(double(failed), double(tally.attempted)),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.mismatched),
                checks.size(),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("rounds: %zu untraced, events/s per round min %.4g median "
                "%.4g max %.4g; aggregate %.4g\n",
                round_eps.size(),
                *std::min_element(round_eps.begin(), round_eps.end()),
                median(round_eps),
                *std::max_element(round_eps.begin(), round_eps.end()),
                ratio(double(events), wall));
    for (const std::string &p : problems)
        std::printf("error: %s\n", p.c_str());
    for (const std::string &c : checks)
        std::printf("check failed: %s\n", c.c_str());
    for (const auto &[def, v] : values) {
        auto src = sources.find(def->name);
        std::printf("  %-32s %16.6g %-12s %s\n", def->name, v, def->unit,
                    src == sources.end() ? "" : src->second);
    }
    if (args.trace)
        for (const auto &[name, t] : traced.totals)
            std::printf("  span %-28s n=%-10llu total=%.4fs self=%.4fs\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.seconds, t.selfSeconds);

    JsonWriter json;
    json.beginObject()
        .kv("correct", correct)
        .kv("attempted", tally.attempted)
        .kv("failed", failed);
    json.key("metrics").beginObject();
    for (const auto &[def, v] : values) {
        json.key(def->name).beginObject();
        json.key("value").raw(jsonNumber(std::isfinite(v) ? v : 0.0));
        json.kv("unit", def->unit).endObject();
    }
    json.endObject().endObject();
    std::fflush(stdout);
    fs::current_path(home);
    std::printf("%s\n", json.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (kInstrumented) {
        std::fprintf(stderr, "perfbench: refusing to report host time: %s\n",
                     kInstrumented);
        return 3;
    }
    // A job that hits bsim_fatal then fails alone instead of ending the
    // process; the failure is counted in error_rate.
    setFatalThrows(true);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
