/**
 * @file
 * Simulator-throughput microbenchmarks (google-benchmark): accesses per
 * second through each cache model and the workload generators, for both
 * the per-access and the batched (accessBatch) hot loops. These guard
 * against performance regressions in the hot simulation loops.
 *
 * Every benchmark drives the same pre-generated address batch. The batch
 * is shared, so it must be strictly read-only: runCache() fingerprints
 * it before and after every timed section and aborts on any mutation.
 * Each timed section also starts from a reset cache so google-benchmark's
 * iteration-estimation passes cannot leak warm state into the measured
 * run.
 *
 * After the run, one BENCH_perf.json record per benchmark is appended
 * (bench = "perf_microbench", config = benchmark name) so the perf
 * trajectory in EXPERIMENTS.md covers the microbenchmarks too.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_json.hh"
#include "sim/cache_spec.hh"
#include "workload/spec2k.hh"

namespace bsim {
namespace {

constexpr std::size_t kBatchLen = 65536;

/** Pre-generated address batch so stream cost is excluded. */
const std::vector<MemAccess> &
batch()
{
    static const std::vector<MemAccess> accesses = [] {
        SpecWorkload w = makeSpecWorkload("gcc");
        std::vector<MemAccess> v;
        v.reserve(kBatchLen);
        for (std::size_t i = 0; i < kBatchLen; ++i)
            v.push_back(w.data->next());
        return v;
    }();
    return accesses;
}

/** Order-sensitive fingerprint of the shared batch. */
std::uint64_t
batchFingerprint(const std::vector<MemAccess> &b)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const MemAccess &req : b) {
        h ^= req.addr + static_cast<std::uint64_t>(req.type);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Abort if a benchmark mutated the shared (read-only) batch. */
void
checkBatchUnchanged(std::uint64_t before)
{
    if (batchFingerprint(batch()) != before) {
        std::fprintf(stderr,
                     "perf_microbench: shared access batch was mutated "
                     "during a benchmark -- it must stay read-only\n");
        std::abort();
    }
}

void
runCache(benchmark::State &state, BaseCache &cache)
{
    const auto &b = batch();
    const std::uint64_t fp = batchFingerprint(b);
    cache.reset();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(b[i]));
        i = (i + 1) & (kBatchLen - 1);
    }
    state.SetItemsProcessed(state.iterations());
    checkBatchUnchanged(fp);
}

/** Same workload through the batched entry point, kChunk at a time. */
void
runCacheBatched(benchmark::State &state, BaseCache &cache)
{
    constexpr std::size_t kChunk = 256;
    static_assert(kBatchLen % kChunk == 0);
    const auto &b = batch();
    const std::uint64_t fp = batchFingerprint(b);
    cache.reset();
    std::vector<AccessOutcome> outs(kChunk);
    std::size_t i = 0;
    std::uint64_t items = 0;
    while (state.KeepRunningBatch(kChunk)) {
        cache.accessBatch({b.data() + i, kChunk}, outs.data());
        benchmark::DoNotOptimize(outs.data());
        i = (i + kChunk) & (kBatchLen - 1);
        items += kChunk;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
    checkBatchUnchanged(fp);
}

void
BM_DirectMapped(benchmark::State &state)
{
    auto c = parseCacheSpec("dm:16kB").build("dm", 1, nullptr);
    runCache(state, *c);
}
BENCHMARK(BM_DirectMapped);

void
BM_DirectMappedBatched(benchmark::State &state)
{
    auto c = parseCacheSpec("dm:16kB").build("dm", 1, nullptr);
    runCacheBatched(state, *c);
}
BENCHMARK(BM_DirectMappedBatched);

void
BM_EightWayLru(benchmark::State &state)
{
    auto c = parseCacheSpec("sa:16kB,8w").build("8w", 1, nullptr);
    runCache(state, *c);
}
BENCHMARK(BM_EightWayLru);

void
BM_EightWayLruBatched(benchmark::State &state)
{
    auto c = parseCacheSpec("sa:16kB,8w").build("8w", 1, nullptr);
    runCacheBatched(state, *c);
}
BENCHMARK(BM_EightWayLruBatched);

void
BM_BCache(benchmark::State &state)
{
    auto c = parseCacheSpec("bcache:16kB,mf=8,bas=8")
                 .build("bc", 1, nullptr);
    runCache(state, *c);
}
BENCHMARK(BM_BCache);

void
BM_BCacheBatched(benchmark::State &state)
{
    auto c = parseCacheSpec("bcache:16kB,mf=8,bas=8")
                 .build("bc", 1, nullptr);
    runCacheBatched(state, *c);
}
BENCHMARK(BM_BCacheBatched);

void
BM_VictimCache(benchmark::State &state)
{
    auto c = parseCacheSpec("dm:16kB+victim:16").build("vc", 1,
                                                       nullptr);
    runCache(state, *c);
}
BENCHMARK(BM_VictimCache);

void
BM_ColumnAssoc(benchmark::State &state)
{
    auto c = parseCacheSpec("column:16kB").build("col", 1, nullptr);
    runCache(state, *c);
}
BENCHMARK(BM_ColumnAssoc);

void
BM_SkewedAssoc(benchmark::State &state)
{
    auto c = parseCacheSpec("skew:16kB").build("sk", 1, nullptr);
    runCache(state, *c);
}
BENCHMARK(BM_SkewedAssoc);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    SpecWorkload w = makeSpecWorkload("equake");
    for (auto _ : state)
        benchmark::DoNotOptimize(w.data->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_InstructionGeneration(benchmark::State &state)
{
    SpecWorkload w = makeSpecWorkload("gcc");
    for (auto _ : state)
        benchmark::DoNotOptimize(w.inst->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstructionGeneration);

/**
 * Wraps the default console reporter and captures per-benchmark results
 * so main() can append them to BENCH_perf.json after the run.
 */
class CapturingReporter : public benchmark::BenchmarkReporter
{
  public:
    explicit CapturingReporter(benchmark::BenchmarkReporter *inner)
        : inner_(inner)
    {
    }

    bool
    ReportContext(const Context &context) override
    {
        return inner_->ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &report) override
    {
        inner_->ReportRuns(report);
        for (const Run &run : report) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            bench::PerfRecord rec;
            rec.bench = "perf_microbench";
            rec.config = run.benchmark_name();
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                rec.accessesPerSec = it->second;
            rec.wallSeconds = run.real_accumulated_time;
            rec.jobs = static_cast<unsigned>(run.threads);
            records_.push_back(std::move(rec));
        }
    }

    void
    Finalize() override
    {
        inner_->Finalize();
    }

    const std::vector<bench::PerfRecord> &
    records() const
    {
        return records_;
    }

  private:
    benchmark::BenchmarkReporter *inner_;
    std::vector<bench::PerfRecord> records_;
};

} // namespace
} // namespace bsim

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    std::unique_ptr<benchmark::BenchmarkReporter> console(
        benchmark::CreateDefaultDisplayReporter());
    bsim::CapturingReporter reporter(console.get());
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!reporter.records().empty()) {
        const std::string err =
            bsim::bench::appendPerfRecords(reporter.records());
        if (!err.empty())
            std::fprintf(stderr, "perf_microbench: %s\n", err.c_str());
        else
            std::printf("[perf] perf_microbench -> %s (%zu records)\n",
                        bsim::bench::benchJsonPath().c_str(),
                        reporter.records().size());
    }
    return 0;
}
