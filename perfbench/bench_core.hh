/**
 * @file
 * The benchmark's own logic, kept apart from perfbench.cc so it can be unit
 * tested: order statistics, result digests, failure accounting, the
 * metric table that BENCHMARK.json mirrors, and the in-memory span log
 * of the traced run.
 */

#ifndef PERFBENCH_BENCH_CORE_HH
#define PERFBENCH_BENCH_CORE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace perfbench {

// ---- order statistics ----

/**
 * Percentile @p p (0..100) of @p values by linear interpolation between
 * closest ranks (the "exclusive" rule is not used: p0 is the minimum and
 * p100 the maximum). 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/**
 * The highest of p50, p90, p99 and p99.9 that has at least
 * @p min_beyond of @p samples strictly beyond it, i.e. the highest tail
 * percentile a sample of this size can report honestly. 0 when not even
 * the median qualifies.
 */
double highestTailPercentile(std::size_t samples,
                             std::size_t min_beyond = 10);

// ---- digests ----

/** 64-bit FNV-1a over a sequence of words and strings. */
class Digest
{
  public:
    Digest &add(std::uint64_t v);
    Digest &add(std::string_view s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Every counter of a CacheStats. */
void addTo(Digest &d, const bsim::CacheStats &s);

/** dcache_grid job: CacheStats, PdStats (if any) and victim hits. */
std::uint64_t digestMissRate(const bsim::MissRateResult &r);

/** timed_ipc job: CpuResult plus the L1I, L1D and L2 counters. */
std::uint64_t digestTimed(const bsim::TimedResult &r);

/** trace_observed: the exact bytes of one stats document. */
std::uint64_t digestBytes(std::string_view bytes);

std::string hex64(std::uint64_t v);

/**
 * Pinned digests, one line per job: "<workload> <index> <hex>". Blank
 * lines and lines starting with '#' are skipped. Returns nullopt (with
 * @p error set) on a malformed line or a duplicate index.
 */
std::optional<std::map<std::string, std::vector<std::uint64_t>>>
parsePinned(const std::string &text, std::string *error = nullptr);

// ---- failure accounting ----

/**
 * Jobs attempted, jobs that failed (threw) and jobs whose digest did not
 * match the expected one. error_rate counts both kinds of failure.
 */
struct ErrorTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;

    std::uint64_t errors() const { return failed + mismatched; }
    double errorRate() const;
};

/**
 * Account one round: every outcome is an attempt and a failed outcome a
 * failure; every present digest that differs from @p want (when
 * non-null) is a mismatch. Digests may be per job or per document, so
 * their count need not match the outcomes'. Returns the indices of the
 * mismatching digests.
 */
std::vector<std::size_t>
accountRound(ErrorTally &tally,
             const std::vector<bsim::SweepOutcome> &outcomes,
             const std::vector<std::optional<std::uint64_t>> &digests,
             const std::vector<std::uint64_t> *want);

// ---- metrics ----

struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd; ///< false: per-layer, emitted by the traced run
};

/** Every metric the benchmark reports, in report order. */
const std::vector<MetricDef> &metricTable();

/** Metric names: a letter or digit, then letters/digits/_/./-, <=64. */
bool validMetricName(std::string_view name);

/** Units: 1..16 of letters, digits, _ / % . - */
bool validMetricUnit(std::string_view unit);

// ---- tracing ----

using Clock = std::chrono::steady_clock;

/** One recorded interval. Spans of one job share its job id. */
struct Span
{
    const char *name = nullptr; ///< static string
    std::uint32_t job = 0;
    std::int32_t parent = -1;   ///< index in the same log, -1 = root
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

/**
 * Spans of one job, appended by the one worker thread that runs it and
 * read only after the sweep has joined its workers.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::uint32_t job = 0) : job_(job) {}

    /** Open a span under @p parent; returns its index. */
    std::int32_t open(const char *name, std::int32_t parent = -1);
    void close(std::int32_t index);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::uint32_t job_;
    std::vector<Span> spans_;
};

/** Total and self time of every span name over a set of logs. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;
    double selfSeconds = 0.0; ///< minus the time covered by children
};

std::map<std::string, SpanTotals>
totalsByName(const std::vector<SpanLog> &logs);

/** CSV dump, one span per line: job,index,parent,name,start_ns,end_ns */
std::string spansCsv(const std::vector<SpanLog> &logs,
                     Clock::time_point origin);

} // namespace perfbench

#endif // PERFBENCH_BENCH_CORE_HH
