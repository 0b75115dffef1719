/**
 * @file
 * The verification campaign driver (ctest label: verify). Its one
 * argument names the campaign:
 *
 *  - `oracle`: randomized B-Cache cases driven in lockstep with the
 *    verify/ oracles — the PD shadow, the fully-associative
 *    write-conservation model, and (for BAS=1 or saturated-PI cases) a
 *    bit-exact SetAssocCache. Default 24 cases x 50k steps.
 *  - `oracle-batched`: the same cases with every DUT access driven
 *    through accessBatch() one-element batches, plus a twin-DUT
 *    multi-element check per case (verify/batch_equiv).
 *  - `twin`: case i samples the i-th registered cache kind, round robin
 *    over the registry, and twin-drives it per-access vs batched; the
 *    run prints the per-kind mix. Default 28 cases x 40k steps.
 *
 * Cases fan out over the sim/ sweep engine as Custom jobs, so the run
 * is parallel yet deterministic. BSIM_VERIFY_CASES, BSIM_VERIFY_ACCESSES
 * and BSIM_VERIFY_SEED override the campaign's defaults for long
 * campaigns (see EXPERIMENTS.md), e.g.:
 *   BSIM_VERIFY_CASES=200 BSIM_VERIFY_ACCESSES=250000 \
 *       ./bsim_verify_fuzz oracle
 * Exits 1 if any case diverges, or if a twin run of at least one case
 * per kind leaves a registered kind without a case; 2 on a bad
 * argument.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/strings.hh"
#include "sim/sweep.hh"
#include "verify/campaign.hh"

using namespace bsim;

namespace {

/**
 * One campaign's name, summary label, runners and defaults. An oracle
 * campaign samples B-Caches only; the others take the registry kinds
 * round robin.
 */
struct Campaign
{
    const char *name;
    const char *label;
    bool oracle;     ///< run the oracle checker on each case
    bool batchedDut; ///< ...through one-element accessBatch() calls
    bool twin;       ///< twin-drive each case per-access vs batched
    std::uint64_t cases, accesses, seed;
};

const Campaign kCampaigns[] = {
    {"oracle", "bsim_verify", true, false, false, 24, 50000, 0x5eedb0a7},
    {"oracle-batched", "bsim_verify (batched DUT)", true, true, true, 24,
     50000, 0x5eedb0a7},
    {"twin", "bsim_verify_alt", false, false, true, 28, 40000, 0xa17f0cc5},
};

} // namespace

int
main(int argc, char **argv)
{
    const Campaign *cp = nullptr;
    for (const Campaign &c : kCampaigns)
        if (argc == 2 && !std::strcmp(argv[1], c.name))
            cp = &c;
    if (!cp) {
        std::fprintf(stderr,
                     "usage: %s oracle|oracle-batched|twin\n"
                     "  env: BSIM_VERIFY_CASES, BSIM_VERIFY_ACCESSES, "
                     "BSIM_VERIFY_SEED\n",
                     argv[0]);
        return 2;
    }
    const Campaign &camp = *cp;
    const std::uint64_t cases = envCount("BSIM_VERIFY_CASES", camp.cases);
    const std::uint64_t accesses =
        envCount("BSIM_VERIFY_ACCESSES", camp.accesses);
    const std::uint64_t base_seed =
        envCount("BSIM_VERIFY_SEED", camp.seed, 0);

    std::vector<std::string> kinds;
    if (camp.oracle)
        kinds.push_back("bcache");
    else
        for (const CacheSpecEntry &e : cacheSpecEntries())
            kinds.push_back(e.name);

    std::vector<VerifyCase> specs(cases);
    std::vector<VerifyResult> oracle(cases), twin(cases);
    std::vector<SweepJob> jobs;
    jobs.reserve(cases);
    for (std::uint64_t i = 0; i < cases; ++i) {
        // Each job writes only its own slot; the sweep engine guarantees
        // the seed is a pure function of (base_seed, index).
        const std::string &kind = kinds[i % kinds.size()];
        jobs.push_back(SweepJob::customJob(
            strprintf("%s-%llu", camp.name, (unsigned long long)i),
            [i, accesses, &camp, &kind, &specs, &oracle,
             &twin](std::uint64_t seed) {
                specs[i] = sampleCase(kind, seed);
                oracle[i].ok = twin[i].ok = true;
                if (camp.oracle)
                    oracle[i] =
                        runOracleCase(specs[i], accesses, camp.batchedDut);
                // Vary the batch length so boundaries land at different
                // stream offsets across cases.
                if (camp.twin)
                    twin[i] =
                        runTwinCase(specs[i], accesses, 16 + 16 * (i % 8));
                return oracle[i].steps + twin[i].steps;
            }));
    }

    SweepOptions opts;
    opts.baseSeed = base_seed;
    const SweepRun run = runSweep(jobs, opts);

    int rc = 0;
    std::uint64_t total_steps = 0;
    std::uint64_t exact = 0;
    std::vector<std::uint64_t> kind_counts(kinds.size());
    for (std::uint64_t i = 0; i < cases; ++i) {
        const SweepOutcome &out = run.outcomes[i];
        if (!out.ok()) {
            std::fprintf(stderr, "case %llu threw: %s\n",
                         (unsigned long long)i, out.error.c_str());
            rc = 1;
            continue;
        }
        total_steps += oracle[i].steps + twin[i].steps;
        ++kind_counts[i % kinds.size()];
        if (camp.oracle && oracle[i].oracleModes != "shadow")
            ++exact;
        for (const VerifyResult *r : {&oracle[i], &twin[i]}) {
            if (r->ok)
                continue;
            std::fprintf(stderr, "case %llu %s\n  case: %s\n  %s\n",
                         (unsigned long long)i,
                         r == &twin[i] ? "batched/per-access MISMATCH"
                                       : "DIVERGED",
                         specs[i].toString().c_str(),
                         r->toString().c_str());
            rc = 1;
        }
    }

    std::string mix;
    if (camp.oracle) {
        mix = strprintf("%llu with an exact oracle",
                        (unsigned long long)exact);
    } else {
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            mix += strprintf("%s%s=%llu", k ? " " : "", kinds[k].c_str(),
                             (unsigned long long)kind_counts[k]);
            if (cases >= kinds.size() && kind_counts[k] == 0) {
                std::fprintf(stderr, "no case ran for kind %s\n",
                             kinds[k].c_str());
                rc = 1;
            }
        }
    }
    std::printf("%s: %llu cases (%s), %llu checked steps: %s\n",
                camp.label, (unsigned long long)cases, mix.c_str(),
                (unsigned long long)total_steps,
                rc != 0       ? "DIVERGENCES FOUND"
                : camp.oracle ? "all oracles agree"
                              : "twins and oracles agree");
    printSweepSummary(run.summary);
    return rc;
}
