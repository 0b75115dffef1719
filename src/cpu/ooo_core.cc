#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bsim {

OooCore::OooCore(const CoreParams &params, CacheHierarchy &hierarchy)
    : params_(params), hier_(hierarchy), latency_(kBatchLen)
{
    bsim_assert(params_.fetchWidth > 0 && params_.commitWidth > 0 &&
                params_.windowSize > 0 && params_.numFus > 0);
    begin();
}

void
OooCore::begin()
{
    lastFetchLine_ = ~Addr{0};
    res_ = CpuResult{};
    pending_ = 0;
    completion_.assign(params_.windowSize + 1, 0);
    commit_.assign(params_.windowSize, 0);
    fuFree_.assign(params_.numFus, 0);
    cursors_ = Cursors{};
    n_ = 0;
}

CpuResult
OooCore::result() const
{
    CpuResult res = res_;
    res.uops = n_;
    res.cycles = cursors_.lastCommit;
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
        program.nextBatch(batch.data(), n);
        step({batch.data(), n});
        left -= n;
    }
    return result();
}

void
OooCore::step(std::span<const MicroOp> ops)
{
    OooCore *const self = this;
    for (std::size_t at = 0; at < ops.size(); at += kBatchLen) {
        const std::span<const MicroOp> batch =
            ops.subspan(at, std::min(kBatchLen, ops.size() - at));
        memoryPass(batch);
        timestampPass({&self, 1}, batch);
    }
}

void
OooCore::memoryPass(std::span<const MicroOp> ops)
{
    bsim_assert(ops.size() <= kBatchLen && pending_ == 0);
    const Cycles hit_latency = hier_.params().l1HitLatency;
    const std::uint32_t line_bytes = hier_.l1i().geometry().lineBytes();

    // The hierarchy calls below are opaque, so state left in members
    // would be reloaded after each one; work on local copies and write
    // them back at the end of the pass.
    Addr last_fetch_line = lastFetchLine_;
    CpuResult res = res_;
    UopLatency *const latency = latency_.data();

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const MicroOp &op = ops[i];
        ++res.perClass[static_cast<std::size_t>(op.cls)];

        // ---- Fetch: I$ access on line crossings (sequential fetches
        // within a line ride the same fill). The front end stalls for
        // the fill latency beyond the hit.
        Cycles stall = 0;
        const Addr line = op.pc / line_bytes;
        if (line != last_fetch_line) {
            last_fetch_line = line;
            const Cycles ic = hier_.fetch(op.pc).latency;
            if (ic > hit_latency)
                stall = ic - hit_latency;
            res.icacheStallCycles += stall;
        }

        // ---- Execute.
        Cycles exec = op.latency;
        if (op.cls == OpClass::Load) {
            exec = hier_.load(op.mem).latency;
            if (exec > hit_latency)
                res.loadMissCycles += exec - hit_latency;
        } else if (op.cls == OpClass::Store) {
            // Stores commit through a write buffer; the D$ access happens
            // but does not stall the pipe beyond the hit latency.
            hier_.store(op.mem);
            exec = hit_latency;
        }

        // ---- Branch redirect: the front end refetches its line.
        if (op.cls == OpClass::Branch && op.mispredicted) {
            ++res.mispredicts;
            res.mispredictCycles += params_.mispredictPenalty;
            last_fetch_line = ~Addr{0};
        }
        latency[i] = {stall, exec};
    }

    lastFetchLine_ = last_fetch_line;
    res_ = res;
    pending_ = ops.size();
}

void
OooCore::timestampPass(std::span<OooCore *const> cores,
                       std::span<const MicroOp> ops)
{
    for (std::size_t at = 0; at < cores.size(); at += kLanes)
        timeBlock(cores.subspan(at, std::min(kLanes, cores.size() - at)),
                  ops);
}

void
OooCore::timeBlock(std::span<OooCore *const> cores,
                   std::span<const MicroOp> ops)
{
    const OooCore &lead = *cores.front();
    const CoreParams &p = lead.params_;
    const std::uint32_t W = p.windowSize;
    const std::uint32_t FUS = p.numFus;

    // Each lane's cursors in locals, written back at the end of the
    // pass; its ring buffers and latencies stay where they are.
    struct Lane
    {
        const UopLatency *latency;
        Cycles *completion;
        Cycles *commit;
        Cycles *fuFree;
        Cursors cursors;
    };
    Lane lanes[kLanes];
    for (std::size_t l = 0; l < cores.size(); ++l) {
        OooCore &c = *cores[l];
        bsim_assert(c.params_ == p && c.n_ == lead.n_ &&
                    c.pending_ == ops.size());
        c.pending_ = 0;
        lanes[l] = {c.latency_.data(), c.completion_.data(),
                    c.commit_.data(), c.fuFree_.data(), c.cursors_};
    }

    std::uint64_t n = lead.n_;
    std::uint32_t slot = static_cast<std::uint32_t>(n % W);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const MicroOp &op = ops[i];
        // The µop's producer slots, the same in every lane. A producer
        // more than W µops back committed before this µop's slot was
        // freed, so it and a missing one (dep 0) read slot W, which is
        // always 0. A producer from before the run reads a slot the run
        // has not written yet, which begin() left 0.
        const auto producer = [&](std::uint32_t dep) {
            const std::uint32_t s = slot + W - dep;
            const std::uint32_t in_ring = s >= W ? s - W : s;
            return dep - 1 < W ? in_ring : W;
        };
        const std::uint32_t p1 = producer(op.dep1);
        const std::uint32_t p2 = producer(op.dep2);
        const bool redirect =
            op.cls == OpClass::Branch && op.mispredicted;

        // The lanes' updates select and multiply by compares instead of
        // branching on them: the outcomes differ from lane to lane and
        // would defeat the host's branch predictor.
        for (std::size_t l = 0; l < cores.size(); ++l) {
            Lane &lane = lanes[l];
            const UopLatency lat = lane.latency[i];

            // ---- Fetch: the window slot must be free (its last µop
            // committed), an I$ fill stalls the front end, and
            // fetchWidth µops fetch per cycle.
            Cursors &cur = lane.cursors;
            const Cycles freed = lane.commit[slot];
            std::uint32_t fetched =
                cur.fetchedInCycle *
                ((freed <= cur.fetchCycle) & (lat.fetchStall == 0));
            Cycles fetch = std::max(cur.fetchCycle, freed) + lat.fetchStall;
            const bool full = fetched >= p.fetchWidth;
            fetch += full;
            fetched *= !full;

            // ---- Ready: after the front end and both producers.
            const Cycles ready =
                std::max({fetch + p.frontendDepth, lane.completion[p1],
                          lane.completion[p2]});

            // ---- Issue: first functional unit free at or after ready.
            Cycles *const fu = lane.fuFree;
            std::uint32_t best_fu = 0;
            Cycles best_free = fu[0];
            for (std::uint32_t f = 1; f < FUS; ++f) {
                const bool earlier = fu[f] < best_free;
                best_fu = earlier ? f : best_fu;
                best_free = earlier ? fu[f] : best_free;
            }
            const Cycles issue = std::max(ready, best_free);
            fu[best_fu] = issue + 1;

            // ---- Execute.
            const Cycles done = issue + lat.exec;
            lane.completion[slot] = done;

            // ---- Commit: in order, commitWidth per cycle.
            const Cycles last = cur.lastCommit;
            Cycles ct = std::max(done, last);
            ct += (ct == last) & (cur.committedInCycle >= p.commitWidth);
            cur.committedInCycle = cur.committedInCycle * (ct == last) + 1;
            lane.commit[slot] = ct;
            cur.lastCommit = ct;

            // ---- Branch redirect: front end restarts after resolution.
            cur.fetchCycle =
                redirect ? std::max(fetch, done + p.mispredictPenalty)
                         : fetch;
            cur.fetchedInCycle = redirect ? 0 : fetched + 1;
        }
        ++n;
        if (++slot == W)
            slot = 0;
    }

    for (std::size_t l = 0; l < cores.size(); ++l) {
        cores[l]->cursors_ = lanes[l].cursors;
        cores[l]->n_ = n;
    }
}

} // namespace bsim
