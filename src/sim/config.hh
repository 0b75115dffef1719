/**
 * @file
 * Simulation-level configuration: the named L1 configuration sets the
 * figure harnesses sweep over, the shared hierarchy defaults, and the
 * `--jobs` plumbing.
 *
 * The declarative cache description itself (CacheKind, CacheConfig, the
 * spec grammar and the variant registry) lives in sim/cache_spec.hh,
 * which this header includes for the CacheConfig it returns.
 */

#ifndef BSIM_SIM_CONFIG_HH
#define BSIM_SIM_CONFIG_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "sim/cache_spec.hh"

namespace bsim {

/**
 * The shared outer-hierarchy defaults of the paper's Table 4 — a 256 kB
 * 4-way L2 with 128 B lines behind a 100-cycle main memory. Every
 * harness and runner that composes "L1 under the standard L2" derives
 * from this one constant (HierarchyParams' own member initializers are
 * the single source of the numbers).
 */
inline constexpr HierarchyParams kTable4Hierarchy{};

/**
 * The nine configurations of Figures 4/5: 2/4/8/32-way, victim16, and the
 * B-Cache at MF in {2,4,8,16} with BAS = 8 (all LRU).
 */
std::vector<CacheConfig> figure4Configs(std::uint64_t size_bytes);

/** The twelve configurations of Figure 12 (B-Cache MF x BAS grid). */
std::vector<CacheConfig> figure12Configs(std::uint64_t size_bytes);

/**
 * Worker-thread count for the sweep engine: the BSIM_JOBS environment
 * variable if set and valid, else the host's hardware concurrency,
 * else 1.
 */
unsigned defaultJobs();

/**
 * Consume a `--jobs N` (or `--jobs=N`) flag from argv, compacting the
 * remaining arguments so positional parsing is undisturbed. Returns 0
 * when the flag is absent (callers then fall back to defaultJobs()).
 * `--jobs` is the only flag a harness takes: fatal on a malformed value
 * and on any other word that starts with `--`.
 */
unsigned consumeJobsFlag(int &argc, char **argv);

} // namespace bsim

#endif // BSIM_SIM_CONFIG_HH
