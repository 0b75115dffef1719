/**
 * @file
 * Differential-oracle smoke for the bench suite: before trusting any of
 * the figure/table reproductions, run the paper's flagship configurations
 * (plus both exact-equivalence limits) through the verify/ OracleChecker
 * and report the checked-step counts. This is the "is the simulator
 * telling the truth" gate — the campaign lives in tests/bsim_verify,
 * this hook pins the specific configurations the paper's numbers use.
 */

#include <cstdio>
#include <vector>

#include "common/table.hh"
#include "verify/campaign.hh"

using namespace bsim;

namespace {

struct Cell
{
    const char *label;
    VerifyCase verifyCase;
};

/** A paper cell: 24-bit addresses, 1% writebacks from above. */
VerifyCase
paperCase(const char *spec, std::uint64_t seed)
{
    return {.cacheSpec = spec,
            .addrBits = 24,
            .writebackFraction = 0.01,
            .seed = seed};
}

} // namespace

int
main()
{
    const std::uint64_t steps = 100000;
    // The paper's L1 baseline: 16 kB, 32 B lines.
    std::vector<Cell> cells = {
        {"baseline-dm (BAS=1)", paperCase("bcache:16kB,mf=1,bas=1", 11)},
        {"paper MF=8 BAS=8", paperCase("bcache:16kB,mf=8,bas=8", 12)},
        {"paper MF=8 BAS=8 wt",
         paperCase("bcache:16kB,mf=8,bas=8,wp=wt", 13)},
        // PI must cover all addrBits-5-6 = 13 upper bits: 2^10 * BAS=8.
        {"saturated-PI (exact SA)",
         paperCase("bcache:16kB,mf=1024,bas=8", 14)},
        {"MF=16 BAS=2", paperCase("bcache:16kB,mf=16,bas=2", 15)},
    };

    Table t({"config", "oracles", "steps", "verdict"});
    int rc = 0;
    for (const Cell &c : cells) {
        const VerifyResult r = runOracleCase(c.verifyCase, steps);
        t.row()
            .cell(c.label)
            .cell(r.oracleModes)
            .cell(r.steps)
            .cell(r.ok ? "agree" : "DIVERGED");
        if (!r.ok) {
            std::fprintf(stderr, "%s\n%s\n", c.verifyCase.toString().c_str(),
                         r.toString().c_str());
            rc = 1;
        }
    }
    t.print("verify smoke (differential oracles on the paper's configs)");
    return rc;
}
