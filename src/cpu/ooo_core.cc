#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bsim {

DecodedBatch::DecodedBatch(unsigned line_bits) : lineBits_(line_bits) {}

void
DecodedBatch::decode(std::span<const MicroOp> ops)
{
    // A µop makes at most two calls: a fetch, then a load or store.
    if (exec_.size() < ops.size()) {
        exec_.resize(ops.size());
        refs_.resize(2 * ops.size());
    }
    Addr fetched_line = fetchedLine_;
    std::uint64_t per_class[5] = {0, 0, 0, 0, 0};
    std::uint64_t mispredicts = 0;
    Ref *ref = refs_.data();
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
        const MicroOp &op = ops[i];
        ++per_class[static_cast<std::size_t>(op.cls)];
        exec_[i] = op.latency;

        // Sequential fetches within a line ride the same fill.
        const Addr line = op.pc >> lineBits_;
        if (line != fetched_line) {
            fetched_line = line;
            *ref++ = {op.pc, i, Ref::Kind::Fetch};
        }
        if (op.cls == OpClass::Load)
            *ref++ = {op.mem, i, Ref::Kind::Load};
        else if (op.cls == OpClass::Store)
            *ref++ = {op.mem, i, Ref::Kind::Store};

        // A redirect: the front end refetches its line.
        if (op.cls == OpClass::Branch && op.mispredicted) {
            ++mispredicts;
            fetched_line = ~Addr{0};
        }
    }
    fetchedLine_ = fetched_line;
    numRefs_ = static_cast<std::size_t>(ref - refs_.data());
    size_ = ops.size();
    std::copy(per_class, per_class + 5, perClass_);
    mispredicts_ = mispredicts;
}

OooCore::OooCore(const CoreParams &params, CacheHierarchy &hierarchy)
    : params_(params), hier_(hierarchy),
      decoded_(hierarchy.l1i().geometry().offsetBits()),
      latency_(kBatchLen)
{
    bsim_assert(params_.fetchWidth > 0 && params_.commitWidth > 0 &&
                params_.windowSize > 0 && params_.numFus > 0);
    begin();
}

void
OooCore::begin()
{
    decoded_.begin();
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
        decoded_.decode(batch);
        memoryPass(decoded_);
        timestampPass({&self, 1}, batch);
    }
}

void
OooCore::memoryPass(const DecodedBatch &batch)
{
    bsim_assert(batch.size() <= kBatchLen && pending_ == 0);
    bsim_assert(batch.lineBits() == hier_.l1i().geometry().offsetBits());
    const Cycles hit_latency = hier_.params().l1HitLatency;

    // The hierarchy calls below are opaque, so state left in members
    // would be reloaded after each one; work on local copies and write
    // them back at the end of the pass.
    CpuResult res = res_;
    UopLatency *const latency = latency_.data();
    const std::uint8_t *const exec = batch.exec();
    for (std::size_t i = 0; i < batch.size(); ++i)
        latency[i] = {0, exec[i]};

    for (const DecodedBatch::Ref &ref : batch.refs()) {
        UopLatency &lat = latency[ref.uop];
        switch (ref.kind) {
          case DecodedBatch::Ref::Kind::Fetch: {
            // The front end stalls for the fill latency beyond the hit.
            const Cycles ic = hier_.fetch(ref.addr).latency;
            if (ic > hit_latency) {
                lat.fetchStall = ic - hit_latency;
                res.icacheStallCycles += lat.fetchStall;
            }
            break;
          }
          case DecodedBatch::Ref::Kind::Load:
            lat.exec = hier_.load(ref.addr).latency;
            if (lat.exec > hit_latency)
                res.loadMissCycles += lat.exec - hit_latency;
            break;
          case DecodedBatch::Ref::Kind::Store:
            // Stores commit through a write buffer; the D$ access
            // happens but does not stall the pipe beyond the hit.
            hier_.store(ref.addr);
            lat.exec = hit_latency;
            break;
        }
    }

    for (std::size_t c = 0; c < 5; ++c)
        res.perClass[c] += batch.perClass()[c];
    res.mispredicts += batch.mispredicts();
    res.mispredictCycles += batch.mispredicts() * params_.mispredictPenalty;
    res_ = res;
    pending_ = batch.size();
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
