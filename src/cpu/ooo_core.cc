#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bsim {

OooCore::OooCore(const CoreParams &params, CacheHierarchy &hierarchy)
    : params_(params), hier_(hierarchy)
{
    bsim_assert(params_.fetchWidth > 0 && params_.commitWidth > 0 &&
                params_.windowSize > 0 && params_.numFus > 0);
    begin();
}

void
OooCore::begin()
{
    completion_.assign(params_.windowSize, 0);
    commit_.assign(params_.windowSize, 0);
    fuFree_.assign(params_.numFus, 0);
    fetchCycle_ = 1;
    fetchedInCycle_ = 0;
    lastCommit_ = 0;
    committedInCycle_ = 0;
    commitCycleOfLast_ = 0;
    lastFetchLine_ = ~Addr{0};
    n_ = 0;
    res_ = CpuResult{};
}

CpuResult
OooCore::result() const
{
    CpuResult res = res_;
    res.uops = n_;
    res.cycles = lastCommit_;
    return res;
}

CpuResult
OooCore::run(SyntheticProgram &program, std::uint64_t num_uops)
{
    begin();
    std::vector<MicroOp> batch(kBatchLen);
    for (std::uint64_t left = num_uops; left > 0;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, kBatchLen));
        for (std::size_t i = 0; i < n; ++i)
            batch[i] = program.next();
        step({batch.data(), n});
        left -= n;
    }
    return result();
}

void
OooCore::step(std::span<const MicroOp> ops)
{
    const std::uint32_t W = params_.windowSize;
    const std::uint32_t FUS = params_.numFus;
    const Cycles hit_latency = hier_.params().l1HitLatency;
    const std::uint32_t line_bytes = hier_.l1i().geometry().lineBytes();

    // The hierarchy calls below are opaque, so state left in members
    // would be reloaded after each one; work on local copies and write
    // them back at the end of the step.
    Cycles *const completion = completion_.data();
    Cycles *const commit = commit_.data();
    Cycles *const fuFree = fuFree_.data();
    Cycles fetch_cycle = fetchCycle_;
    std::uint32_t fetched_in_cycle = fetchedInCycle_;
    Cycles last_commit = lastCommit_;
    std::uint32_t committed_in_cycle = committedInCycle_;
    Cycles commit_cycle_of_last = commitCycleOfLast_;
    Addr last_fetch_line = lastFetchLine_;
    std::uint64_t n = n_;
    CpuResult res = res_;

    for (const MicroOp &op : ops) {
        ++res.perClass[static_cast<std::size_t>(op.cls)];
        const std::uint32_t slot = n % W;

        // ---- Fetch: window slot must be free and bandwidth available.
        Cycles ft = fetch_cycle;
        if (n >= W)
            ft = std::max(ft, commit[slot]); // reuse slot after commit
        if (ft > fetch_cycle) {
            fetch_cycle = ft;
            fetched_in_cycle = 0;
        }
        // I$ access on line crossings (sequential fetches within a line
        // ride the same fill).
        const Addr line = op.pc / line_bytes;
        if (line != last_fetch_line) {
            last_fetch_line = line;
            const AccessOutcome ic = hier_.fetch(op.pc);
            if (ic.latency > hit_latency) {
                // Front end stalls for the extra fill latency.
                const Cycles stall = ic.latency - hit_latency;
                res.icacheStallCycles += stall;
                fetch_cycle = ft + stall;
                fetched_in_cycle = 0;
                ft = fetch_cycle;
            }
        }
        if (fetched_in_cycle >= params_.fetchWidth) {
            ++fetch_cycle;
            fetched_in_cycle = 0;
            ft = std::max(ft, fetch_cycle);
        }
        ++fetched_in_cycle;

        // ---- Ready: after the front end and all producers.
        Cycles ready = ft + params_.frontendDepth;
        if (op.dep1 && op.dep1 <= n)
            ready = std::max(ready, completion[(n - op.dep1) % W]);
        if (op.dep2 && op.dep2 <= n)
            ready = std::max(ready, completion[(n - op.dep2) % W]);

        // ---- Issue: first functional unit free at or after ready.
        std::uint32_t best_fu = 0;
        for (std::uint32_t f = 1; f < FUS; ++f)
            if (fuFree[f] < fuFree[best_fu])
                best_fu = f;
        const Cycles issue = std::max(ready, fuFree[best_fu]);
        fuFree[best_fu] = issue + 1;

        // ---- Execute.
        Cycles lat = op.latency;
        if (op.cls == OpClass::Load) {
            lat = hier_.load(op.mem).latency;
            if (lat > hit_latency)
                res.loadMissCycles += lat - hit_latency;
        } else if (op.cls == OpClass::Store) {
            // Stores commit through a write buffer; the D$ access happens
            // but does not stall the pipe beyond the hit latency.
            hier_.store(op.mem);
            lat = hit_latency;
        }
        const Cycles done = issue + lat;
        completion[slot] = done;

        // ---- Commit: in order, commitWidth per cycle.
        Cycles ct = std::max(done, last_commit);
        if (ct == commit_cycle_of_last &&
            committed_in_cycle >= params_.commitWidth)
            ++ct;
        if (ct != commit_cycle_of_last) {
            commit_cycle_of_last = ct;
            committed_in_cycle = 0;
        }
        ++committed_in_cycle;
        commit[slot] = ct;
        last_commit = ct;

        // ---- Branch redirect: front end restarts after resolution.
        if (op.cls == OpClass::Branch && op.mispredicted) {
            ++res.mispredicts;
            res.mispredictCycles += params_.mispredictPenalty;
            fetch_cycle =
                std::max(fetch_cycle, done + params_.mispredictPenalty);
            fetched_in_cycle = 0;
            last_fetch_line = ~Addr{0};
        }
        ++n;
    }

    fetchCycle_ = fetch_cycle;
    fetchedInCycle_ = fetched_in_cycle;
    lastCommit_ = last_commit;
    committedInCycle_ = committed_in_cycle;
    commitCycleOfLast_ = commit_cycle_of_last;
    lastFetchLine_ = last_fetch_line;
    n_ = n;
    res_ = res;
}

} // namespace bsim
