#include "sim/session.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "observe/export.hh"

namespace bsim {

namespace {

using Clock = std::chrono::steady_clock;

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

Session::Session(AccessStream &stream, const CacheConfig &config,
                 std::uint64_t accesses, std::string label,
                 const ObserverConfig &observe, std::size_t batch_len)
    : Session(stream, std::vector<CacheConfig>{config}, accesses,
              std::move(label), observe, batch_len)
{
}

Session::Session(AccessStream &stream, std::vector<CacheConfig> configs,
                 std::uint64_t accesses, std::string label,
                 const ObserverConfig &observe, std::size_t batch_len)
    : configs_(std::move(configs)),
      label_(std::move(label)),
      observe_(observe),
      maxAccesses_(accesses),
      batchLen_(batch_len),
      stream_(&stream)
{
    bsim_assert(!configs_.empty());
}

Session::Session(std::string trace_path, const CacheConfig &config,
                 const TraceShard &shard,
                 const TraceReplayOptions &options)
    : configs_{config},
      label_(replayLabel(trace_path, shard)),
      observe_(options.observe),
      maxAccesses_(options.maxAccesses),
      batchLen_(options.batchLen),
      tracePath_(std::move(trace_path)),
      shard_(shard),
      handle_(options.handle)
{
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
    r.pd = side.pd;
    r.victimHits = side.victimHits;
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
        const auto start = Clock::now();
        try {
            step();
        } catch (...) {
            run.error = std::current_exception();
            cache.reset();
            obs.reset();
        }
        run.seconds +=
            std::chrono::duration<double>(Clock::now() - start).count();
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

    // BSIM_BATCH=0/1 selects the per-access path: records still come
    // off the source a chunk at a time (the stream's own next(), one
    // call per record), and each cache sees them one access() at a
    // time. Otherwise stream and cache both work in batches, which is
    // bit-identical (see MemLevel::accessBatch).
    const std::size_t batch_len =
        batchLen_ ? batchLen_ : defaultBatchLen();
    const bool per_access = batch_len <= 1;
    const std::size_t chunk = per_access ? kDefaultBatchLen : batch_len;
    std::vector<MemAccess> reqs;
    std::vector<AccessOutcome> outs(per_access ? 0 : chunk);

    // Where the records come from. Trace readers and span streams
    // (trace-backed AccessStreams) hand out views of their own chunk
    // buffer — the mmap itself for uncompressed BST2 — so nothing is
    // copied per record on the way into accessBatch; spans stop at
    // chunk edges, and the accessBatch contract (verify/batch_equiv)
    // is boundary-independent. An empty span means a bounded source
    // ran out; the run ends there. Generators fill `reqs`.
    TraceReaderPtr reader;
    std::function<std::span<const MemAccess>(std::size_t)> pull;
    if (!stream_) {
        if (alive())
            reader = handle_ ? openTraceReader(handle_, shard_)
                             : openTraceReader(tracePath_, shard_);
        pull = [&](std::size_t n) { return reader->nextSpan(n); };
    } else if (!per_access && stream_->hasSpanBatches()) {
        pull = [&](std::size_t n) { return stream_->nextSpan(n); };
    } else {
        reqs.resize(chunk);
        pull = [&](std::size_t n) {
            if (per_access)
                for (std::size_t i = 0; i < n; ++i)
                    reqs[i] = stream_->next();
            else
                stream_->nextBatch(reqs.data(), n);
            return std::span<const MemAccess>(reqs.data(), n);
        };
    }

    // A trace window with no maxAccesses runs to its end; a stream is
    // unbounded, so its run length is exactly maxAccesses.
    std::uint64_t left = (stream_ || maxAccesses_) ? maxAccesses_
                                                   : ~std::uint64_t{0};
    while (left > 0 && alive()) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, chunk));
        // Re-clamp what actually came back: a source promises at most
        // `want` records, but `left -= size` is an unsigned subtraction
        // that would wrap past maxAccesses if one ever over-delivered
        // (turning a bounded run into a near-unbounded one), and the
        // clamp also keeps it from overrunning `outs`.
        std::span<const MemAccess> s = pull(want);
        s = s.first(std::min(s.size(), want));
        if (s.empty())
            break;
        for (Dut &d : duts) {
            if (!d.cache)
                continue;
            d.timed([&] {
                if (per_access)
                    for (const MemAccess &a : s)
                        d.cache->access(a);
                else
                    d.cache->accessBatch(s, outs.data());
            });
        }
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

std::uint64_t
Session::sampledPopulation() const
{
    if (stream_) {
        if (maxAccesses_ == 0)
            bsim_fatal(
                "sampled run needs a nonzero population (accesses)");
        return maxAccesses_;
    }
    const TraceInfo info =
        handle_ ? handle_->info() : probeTrace(tracePath_);
    if (info.recordCount == kUnknownRecordCount)
        bsim_fatal("cannot sample text trace '", tracePath_,
                   "': the record count is unknown without a full "
                   "scan; convert it to .bst first (docs/TRACES.md)");
    std::uint64_t records = info.recordCount;
    if (maxAccesses_)
        records = std::min(records, maxAccesses_);
    return records;
}

MissRateResult
Session::runSampled(const SamplePlan &plan, std::uint64_t first_unit,
                    std::uint64_t unit_count)
{
    bsim_assert(configs_.size() == 1);
    if (observe_.enabled)
        bsim_fatal("sampled replay cannot ride an observer: each unit "
                   "runs its own short-lived cache, so there is no "
                   "aggregate per-set state to observe");
    const std::uint64_t records = sampledPopulation();
    const std::uint64_t n_units = plan.unitsFor(records);
    const std::size_t batch_len = std::max<std::size_t>(
        batchLen_ ? batchLen_ : defaultBatchLen(), 1);
    std::vector<AccessOutcome> outs(batch_len);

    SampledStats sampled;
    sampled.plan = plan;
    sampled.records = records;
    CacheStats total;

    if (stream_) {
        if (first_unit != 0 || unit_count != 0)
            bsim_fatal("sampled unit ranges need a seekable trace "
                       "source; streams run the full unit list");
        // No reserve: a stream's population is only a cap (it may be
        // 2^64 - 1, a run until stopped), so the unit list grows as
        // units complete.
        AccessStream &stream = *stream_;
        std::vector<MemAccess> reqs(batch_len);

        // One forward pass: streams cannot seek, so records between
        // units are pulled and discarded (generation cost only);
        // warmup and measured records are fed through the batched hot
        // path.
        std::uint64_t pos = 0;
        auto pump = [&](std::uint64_t n, BaseCache *cache) {
            while (n > 0) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, batch_len));
                std::size_t got = want;
                if (stream.hasSpanBatches()) {
                    std::span<const MemAccess> s = stream.nextSpan(want);
                    s = s.first(std::min(s.size(), want));
                    if (s.empty())
                        bsim_fatal("stream '", label_,
                                   "' exhausted at record ", pos,
                                   " of a declared ", records,
                                   "-record population");
                    if (cache)
                        cache->accessBatch(s, outs.data());
                    got = s.size();
                } else {
                    stream.nextBatch(reqs.data(), want);
                    if (cache)
                        cache->accessBatch({reqs.data(), want},
                                           outs.data());
                }
                pos += got;
                n -= got;
            }
        };

        for (std::uint64_t k = 0; k < n_units; ++k) {
            const std::uint64_t s0 = k * plan.period;
            const std::uint64_t e =
                std::min(s0 + plan.unitLen, records);
            // Clamp the warmup window so it never reaches back into
            // records already consumed (the previous unit, or the
            // stream start).
            const std::uint64_t w0 =
                std::max(s0 >= plan.warmup ? s0 - plan.warmup : 0, pos);
            pump(w0 - pos, nullptr);
            auto cache = configs_.front().build(configs_.front().label, 1, nullptr);
            pump(s0 - pos, cache.get());
            const CacheStats after_warmup = cache->stats();
            pump(e - pos, cache.get());
            CacheStats delta = cache->stats();
            delta -= after_warmup;
            total += delta;
            sampled.units.push_back({k, delta.accesses, delta.misses});
        }
    } else {
        const std::uint64_t u0 = std::min(first_unit, n_units);
        const std::uint64_t u1 =
            unit_count == 0 ? n_units
                            : std::min(u0 + unit_count, n_units);
        sampled.units.reserve(static_cast<std::size_t>(u1 - u0));
        TraceReaderPtr reader = handle_ ? openTraceReader(handle_)
                                        : openTraceReader(tracePath_);

        auto pump = [&](BaseCache &cache, std::uint64_t n) {
            while (n > 0) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, batch_len));
                // Same defensive clamp as the full replay loop.
                std::span<const MemAccess> s = reader->nextSpan(want);
                s = s.first(std::min(s.size(), want));
                if (s.empty())
                    bsim_fatal("trace '", tracePath_,
                               "' ended at record ", reader->position(),
                               " inside a sampling unit");
                cache.accessBatch(s, outs.data());
                n -= s.size();
            }
        };

        for (std::uint64_t k = u0; k < u1; ++k) {
            // Unit k measures [k*P, min(k*P + U, records)), warmed up
            // from a cold cache over the W records before it.
            // Simulating every unit independently is what makes a
            // unit's sums a pure function of (trace, config, plan, k)
            // — the bit-identity contract sharding relies on.
            const std::uint64_t start = k * plan.period;
            const std::uint64_t end =
                std::min(start + plan.unitLen, records);
            const std::uint64_t warm_start =
                start >= plan.warmup ? start - plan.warmup : 0;
            reader->skipTo(warm_start);
            auto cache = configs_.front().build(configs_.front().label, 1, nullptr);
            pump(*cache, start - warm_start);
            const CacheStats after_warmup = cache->stats();
            pump(*cache, end - start);
            CacheStats delta = cache->stats();
            delta -= after_warmup;
            total += delta;
            sampled.units.push_back({k, delta.accesses, delta.misses});
        }
    }

    MissRateResult r;
    r.workload = label_;
    r.config = configs_.front().label;
    r.stats = total;
    r.sampled = std::move(sampled);
    return r;
}

void
writeTextOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        bsim_fatal("cannot write '", path, "'");
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

void
writeObserverExports(const StatsExport &ex, const ObserverReport &rep)
{
    if (!ex.heatmapPath.empty())
        writeTextOutput(ex.heatmapPath, heatmapCsv(rep));
    // The interval series rides inside --stats-json when one is being
    // written; --interval alone dumps it as CSV on stdout.
    if (ex.interval > 0 && ex.statsJsonPath.empty())
        std::fputs(intervalCsv(rep).c_str(), stdout);
}

} // namespace bsim
