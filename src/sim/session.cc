#include "sim/session.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "common/logging.hh"
#include "observe/export.hh"

namespace bsim {

namespace {

std::string
replayLabel(const std::string &path, const TraceShard &shard)
{
    if (shard.firstRecord == 0 &&
        shard.recordCount == kUnknownRecordCount)
        return "trace:" + path;
    const std::string count =
        shard.recordCount == kUnknownRecordCount
            ? std::string("rest")
            : std::to_string(shard.recordCount);
    return "trace:" + path + "[" + std::to_string(shard.firstRecord) +
           "+" + count + ")";
}

} // namespace

Session::Session(AccessStream &stream, std::vector<CacheConfig> configs,
                 std::uint64_t accesses, std::string label,
                 const ObserverConfig &observe)
    : configs_(std::move(configs)),
      label_(std::move(label)),
      observe_(observe),
      maxAccesses_(accesses),
      stream_(&stream)
{
    bsim_assert(!configs_.empty());
}

Session::Session(std::string trace_path, std::vector<CacheConfig> configs,
                 const TraceShard &shard,
                 const TraceReplayOptions &options)
    : configs_(std::move(configs)),
      label_(replayLabel(trace_path, shard)),
      observe_(options.observe),
      maxAccesses_(options.maxAccesses),
      tracePath_(std::move(trace_path)),
      shard_(shard),
      handle_(options.handle)
{
    bsim_assert(!configs_.empty());
    if (handle_)
        bsim_assert(handle_->path() == tracePath_);
}

MissRateResult
Session::finish(const CacheConfig &config, BaseCache &cache,
                const StatsObserver *obs) const
{
    MissRateResult r;
    r.workload = label_;
    r.config = config.label;
    r.stats = cache.stats();
    r.balance = analyzeBalance(cache.setUsage());
    const SideCounters side = config.sideCounters(cache);
    if (const auto hcm = findSideCounter(side, "pdHitCacheMiss"))
        r.pd = PdStats{*hcm, findSideCounter(side, "pdMiss").value_or(0)};
    r.victimHits = findSideCounter(side, "victimHits").value_or(0);
    r.observer = harvestObserver(obs, cache);
    return r;
}

namespace {

/** One cache under test while a session runs. */
struct Dut
{
    std::unique_ptr<BaseCache> cache; ///< null once the DUT has failed
    std::unique_ptr<StatsObserver> obs;
    DutRun run;

    /**
     * Run @p step on this DUT's clock. A throw fails the DUT alone: the
     * exception is kept for its DutRun and the cache is dropped, so no
     * further records reach it.
     */
    template <class Step>
    void
    timed(Step &&step)
    {
        if (!run.timed(step)) {
            cache.reset();
            obs.reset();
        }
    }
};

} // namespace

std::vector<DutRun>
Session::runEach()
{
    std::vector<Dut> duts(configs_.size());
    for (std::size_t i = 0; i < duts.size(); ++i) {
        Dut &d = duts[i];
        d.timed([&] {
            d.cache = configs_[i].build(configs_[i].label, 1, nullptr);
            d.obs = attachObserver(*d.cache, observe_);
        });
    }
    auto alive = [&] {
        return std::any_of(duts.begin(), duts.end(),
                           [](const Dut &d) { return d.cache != nullptr; });
    };

    // A failure of the source itself (a missing or corrupt trace)
    // fails every DUT still running with its error, as it would fail a
    // single-DUT run.
    auto fail_source = [&] {
        const std::exception_ptr error = std::current_exception();
        for (Dut &d : duts) {
            if (!d.cache)
                continue;
            d.run.error = error;
            d.cache.reset();
            d.obs.reset();
        }
    };

    // Where the records come from. A trace reader hands out views of
    // its own chunk buffer — the mmap itself for uncompressed BST2 — so
    // nothing is copied per record on the way into accessBatch; spans
    // stop at chunk edges, and the accessBatch contract
    // (verify/batch_equiv) is boundary-independent. An empty span means
    // the window ran out; the run ends there. A generator fills `reqs`.
    TraceReaderPtr reader;
    std::vector<MemAccess> reqs;
    if (stream_) {
        reqs.resize(kDefaultBatchLen);
    } else if (alive()) {
        try {
            reader = handle_ ? openTraceReader(handle_, shard_)
                             : openTraceReader(tracePath_, shard_);
        } catch (...) {
            fail_source();
        }
    }
    std::vector<AccessOutcome> outs(kDefaultBatchLen);

    // A trace window with no maxAccesses runs to its end; a stream is
    // unbounded, so its run length is exactly maxAccesses.
    std::uint64_t left = (stream_ || maxAccesses_) ? maxAccesses_
                                                   : ~std::uint64_t{0};
    while (left > 0 && alive()) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, kDefaultBatchLen));
        std::span<const MemAccess> s;
        try {
            if (stream_) {
                stream_->nextBatch(reqs.data(), want);
                s = std::span<const MemAccess>(reqs.data(), want);
            } else {
                s = reader->nextSpan(want);
            }
        } catch (...) {
            fail_source();
            break;
        }
        // Re-clamp what actually came back: a reader promises at most
        // `want` records, but `left -= size` is an unsigned subtraction
        // that would wrap past maxAccesses if one ever over-delivered
        // (turning a bounded run into a near-unbounded one), and the
        // clamp also keeps it from overrunning `outs`.
        s = s.first(std::min(s.size(), want));
        if (s.empty())
            break;
        for (Dut &d : duts)
            if (d.cache)
                d.timed([&] { d.cache->accessBatch(s, outs.data()); });
        left -= s.size();
    }

    std::vector<DutRun> runs;
    runs.reserve(duts.size());
    for (std::size_t i = 0; i < duts.size(); ++i) {
        Dut &d = duts[i];
        if (d.cache)
            d.timed([&] {
                d.run.result =
                    finish(configs_[i], *d.cache, d.obs.get());
            });
        runs.push_back(std::move(d.run));
    }
    return runs;
}

MissRateResult
Session::run()
{
    bsim_assert(configs_.size() == 1);
    DutRun only = std::move(runEach().front());
    if (only.error)
        std::rethrow_exception(only.error);
    return std::move(*only.result);
}

void
writeTextOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        if (std::fputs(text.c_str(), stdout) == EOF)
            bsim_fatal("write failed on stdout");
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        bsim_fatal("cannot write '", path, "'");
    const bool wrote = std::fputs(text.c_str(), f) != EOF;
    if (std::fclose(f) != 0 || !wrote)
        bsim_fatal("write failed on '", path, "'");
}

void
writeObserverExports(const StatsExport &ex, const ObserverReport &rep,
                     bool json_on_stdout)
{
    if (!ex.heatmapPath.empty())
        writeTextOutput(ex.heatmapPath, heatmapCsv(rep));
    if (ex.interval > 0 && ex.statsJsonPath.empty() && !json_on_stdout)
        std::fputs(intervalCsv(rep).c_str(), stdout);
}

} // namespace bsim
