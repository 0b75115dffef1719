/**
 * @file
 * Table 7 reproduction: data-cache set-usage balance of the 16 kB
 * direct-mapped baseline versus the B-Cache (MF=8, BAS=8) per benchmark:
 * frequent-hit sets (fhs) and their share of hits (ch), frequent-miss
 * sets (fms) and their share of misses (cm), less-accessed sets (las)
 * and their share of accesses (tca). All values are percentages.
 */

#include "bench/bench_util.hh"
#include "workload/spec2k.hh"

using namespace bsim;
using namespace bsim::bench;

int
main()
{
    banner("table7_balance", "Table 7 (D$ memory access behaviour)");
    const std::uint64_t n = defaultAccesses(500'000);

    Table t({"benchmark", "org", "fhs", "ch", "fms", "cm", "las",
             "tca"});
    RunningStat a_fhs[2], a_ch[2], a_fms[2], a_cm[2], a_las[2],
        a_tca[2];

    for (const auto &b : spec2kNames()) {
        const CacheConfig cfgs[2] = {
            parseCacheSpec("dm:16kB"),
            parseCacheSpec("bcache:16kB,mf=8,bas=8"),
        };
        const char *names[2] = {"dm", "bc"};
        for (int i = 0; i < 2; ++i) {
            const BalanceReport br =
                runMissRate(b, StreamSide::Data, cfgs[i], n).balance;
            t.row()
                .cell(i == 0 ? b : "")
                .cell(names[i])
                .cell(br.fhsPct, 1)
                .cell(br.chPct, 1)
                .cell(br.fmsPct, 1)
                .cell(br.cmPct, 1)
                .cell(br.lasPct, 1)
                .cell(br.tcaPct, 1);
            a_fhs[i].add(br.fhsPct);
            a_ch[i].add(br.chPct);
            a_fms[i].add(br.fmsPct);
            a_cm[i].add(br.cmPct);
            a_las[i].add(br.lasPct);
            a_tca[i].add(br.tcaPct);
        }
    }
    for (int i = 0; i < 2; ++i) {
        t.row()
            .cell(i == 0 ? "Ave" : "")
            .cell(i == 0 ? "dm" : "bc")
            .cell(a_fhs[i].mean(), 1)
            .cell(a_ch[i].mean(), 1)
            .cell(a_fms[i].mean(), 1)
            .cell(a_cm[i].mean(), 1)
            .cell(a_las[i].mean(), 1)
            .cell(a_tca[i].mean(), 1);
    }
    t.print("set-usage balance, 16kB D$ (all values %)");
    return 0;
}
