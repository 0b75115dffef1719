/**
 * @file
 * Registry-wide twin fuzz driver (ctest label: verify): samples a
 * randomized configuration of every registered cache kind in turn (case
 * i takes the i-th kind, round robin over the registry) and drives twin
 * DUTs — per-access vs batched — through the one twin check of
 * verify/batch_equiv, while the fully-associative residency model
 * polices write conservation (verify/twin_fuzz). Cases fan out over the
 * sim/ sweep engine as Custom jobs, so the run is parallel yet
 * deterministic.
 *
 * Defaults drive 28 cases x 40k steps. Override with
 * BSIM_VERIFY_ALT_CASES / BSIM_VERIFY_ALT_ACCESSES for long campaigns
 * (see EXPERIMENTS.md), e.g.:
 *   BSIM_VERIFY_ALT_CASES=200 BSIM_VERIFY_ALT_ACCESSES=250000 \
 *       ./bsim_verify_alt_fuzz
 * Exits non-zero if any case diverges, or if a run of at least one case
 * per kind leaves a registered kind without a case.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/strings.hh"
#include "sim/sweep.hh"
#include "verify/twin_fuzz.hh"

using namespace bsim;

namespace {

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 0);
}

} // namespace

int
main()
{
    const std::uint64_t cases = envOr("BSIM_VERIFY_ALT_CASES", 28);
    const std::uint64_t accesses =
        envOr("BSIM_VERIFY_ALT_ACCESSES", 40000);
    const std::uint64_t base_seed =
        envOr("BSIM_VERIFY_ALT_SEED", 0xa17f0cc5);

    std::vector<std::string> kinds;
    for (const CacheSpecEntry &e : CacheFactory::instance().entries())
        kinds.push_back(e.name);

    std::vector<BatchEquivResult> results(cases);
    std::vector<TwinCase> specs(cases);
    std::vector<SweepJob> jobs;
    jobs.reserve(cases);
    for (std::uint64_t i = 0; i < cases; ++i) {
        // Each job writes only its own slot; the sweep engine guarantees
        // the seed is a pure function of (base_seed, index).
        const std::string &kind = kinds[i % kinds.size()];
        jobs.push_back(SweepJob::customJob(
            strprintf("twin-fuzz-%llu", (unsigned long long)i),
            [i, accesses, &kind, &results, &specs](std::uint64_t seed) {
                specs[i] = sampleTwinCase(kind, seed);
                // Vary the batch length so boundaries land at different
                // stream offsets across cases.
                results[i] = runTwinCase(specs[i], accesses,
                                         16 + 16 * (i % 8));
                return results[i].steps;
            }));
    }

    SweepOptions opts;
    opts.baseSeed = base_seed;
    const SweepRun run = runSweep(jobs, opts);

    int rc = 0;
    std::uint64_t total_steps = 0;
    std::vector<std::uint64_t> kind_counts(kinds.size());
    for (std::uint64_t i = 0; i < cases; ++i) {
        const SweepOutcome &out = run.outcomes[i];
        if (!out.ok()) {
            std::fprintf(stderr, "case %llu threw: %s\n",
                         (unsigned long long)i, out.error.c_str());
            rc = 1;
            continue;
        }
        total_steps += results[i].steps;
        ++kind_counts[i % kinds.size()];
        if (!results[i].ok) {
            std::fprintf(stderr, "case %llu DIVERGED\n  spec: %s\n  %s\n",
                         (unsigned long long)i,
                         specs[i].toString().c_str(),
                         results[i].toString().c_str());
            rc = 1;
        }
    }

    std::string mix;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        mix += strprintf("%s%s=%llu", k ? " " : "", kinds[k].c_str(),
                         (unsigned long long)kind_counts[k]);
        if (cases >= kinds.size() && kind_counts[k] == 0) {
            std::fprintf(stderr, "no case ran for kind %s\n",
                         kinds[k].c_str());
            rc = 1;
        }
    }
    std::printf("bsim_verify_alt: %llu cases (%s), %llu checked steps: "
                "%s\n",
                (unsigned long long)cases, mix.c_str(),
                (unsigned long long)total_steps,
                rc == 0 ? "twins and oracles agree"
                        : "DIVERGENCES FOUND");
    printSweepSummary(run.summary);
    return rc;
}
