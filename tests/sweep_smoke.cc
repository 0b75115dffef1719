/**
 * @file
 * CTest smoke target for the sweep engine: runs a tiny 8-job sweep on 2
 * worker threads on every build and checks the results arrive in
 * submission order and bit-identical to a 1-thread run. Exits non-zero
 * (failing the ctest) on any mismatch.
 */

#include <cstdio>

#include "sim/sweep.hh"

using namespace bsim;

int
main()
{
    const std::uint64_t n = 10000;
    std::vector<SweepJob> jobs;
    for (const auto &b : {"gcc", "equake", "twolf", "gzip"}) {
        jobs.push_back(SweepJob::missRate(
            b, StreamSide::Data, parseCacheSpec("dm:16kB"),
            n));
        jobs.push_back(SweepJob::missRate(
            b, StreamSide::Data, parseCacheSpec("bcache:16kB,mf=8,bas=8"),
            n));
    }

    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions smoke;
    smoke.jobs = 2;
    const SweepRun a = runSweep(jobs, serial);
    const SweepRun b = runSweep(jobs, smoke);

    int rc = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const MissRateResult &ra = missResult(a.outcomes[i]);
        const MissRateResult &rb = missResult(b.outcomes[i]);
        if (rb.workload != jobs[i].workload ||
            rb.config != jobs[i].config.label) {
            std::fprintf(stderr, "job %zu out of order\n", i);
            rc = 1;
        }
        if (ra.stats.misses != rb.stats.misses ||
            ra.stats.hits != rb.stats.hits) {
            std::fprintf(stderr, "job %zu not bit-identical\n", i);
            rc = 1;
        }
    }
    if (b.summary.failed != 0) {
        std::fprintf(stderr, "%zu jobs failed\n", b.summary.failed);
        rc = 1;
    }
    printSweepSummary(b.summary);
    return rc;
}
