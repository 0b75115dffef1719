#include "verify/oracle_checker.hh"

#include "common/bits.hh"
#include "common/strings.hh"

namespace bsim {

std::string
Divergence::toString() const
{
    return strprintf("step %llu addr 0x%llx: %s",
                     (unsigned long long)step, (unsigned long long)addr,
                     what.c_str());
}

OracleChecker::OracleChecker(BCache &dut, TrackingMemory &mem,
                             const OracleOptions &opts)
    : dut_(dut), mem_(mem), opts_(opts), layout_(dut.layout()),
      offsetBits_(dut.geometry().offsetBits()),
      writeThrough_(dut.params().writePolicy ==
                    WritePolicy::WriteThroughNoAllocate),
      shadow_(layout_.groups),
      residency_(dut, dut.params().writePolicy)
{
    // The two exact-equivalence limits of the paper (Section 2): BAS = 1
    // degenerates to the direct-mapped baseline; a PI wide enough to cover
    // every upper bit the address stream can produce makes PD match ==
    // tag match, i.e. a BAS-way set-associative cache with 2^NPI sets.
    const bool dm = layout_.bas == 1;
    const unsigned upper_bits =
        opts_.addrBits > offsetBits_ + layout_.npiBits
            ? opts_.addrBits - offsetBits_ - layout_.npiBits
            : 0;
    const bool saturated = layout_.piBits >= upper_bits;
    if (dm || saturated) {
        const BCacheParams &p = dut_.params();
        oracleMem_ = std::make_unique<TrackingMemory>(mem_.latency());
        oracle_ = std::make_unique<SetAssocCache>(
            dut_.name() + "-oracle",
            CacheGeometry(p.sizeBytes, p.lineBytes,
                          dm ? 1 : (std::uint32_t)layout_.bas),
            dut_.hitLatency(), oracleMem_.get(), p.repl, p.replSeed,
            p.writePolicy);
    }
}

std::string
OracleChecker::oracleModes() const
{
    if (!oracle_)
        return "shadow";
    return oracle_->geometry().ways() == 1 ? "shadow+dm" : "shadow+sa";
}

std::size_t
OracleChecker::groupOf(Addr addr) const
{
    return bitsRange(addr, offsetBits_, layout_.npiBits);
}

Addr
OracleChecker::upperOf(Addr addr) const
{
    return addr >> (offsetBits_ + layout_.npiBits);
}

Addr
OracleChecker::patternOf(Addr upper) const
{
    return upper & mask(layout_.piBits);
}

Addr
OracleChecker::blockOf(std::size_t group, Addr upper) const
{
    return (upper << layout_.npiBits | group) << offsetBits_;
}

PdOutcome
OracleChecker::shadowClassify(std::size_t group, Addr pattern,
                              Addr upper) const
{
    const auto it = shadow_[group].find(pattern);
    if (it == shadow_[group].end())
        return PdOutcome::Miss;
    return it->second.upper == upper ? PdOutcome::HitAndCacheHit
                                     : PdOutcome::HitButCacheMiss;
}

OracleChecker::ShadowGroup::iterator
OracleChecker::resolveEvicted(std::size_t group)
{
    ShadowGroup &g = shadow_[group];
    auto found = g.end();
    std::size_t gone = 0;
    for (auto it = g.begin(); it != g.end(); ++it) {
        if (!dut_.contains(blockOf(group, it->second.upper))) {
            found = it;
            ++gone;
        }
    }
    return gone == 1 ? found : g.end();
}

void
OracleChecker::diverge(Addr addr, std::string what)
{
    ++totalDivergences_;
    if (divergences_.size() < opts_.maxDivergences)
        divergences_.push_back({step_, addr, std::move(what)});
}

void
OracleChecker::compareEvents(Addr addr,
                             const std::vector<MemEvent> &expected,
                             const std::vector<MemEvent> &actual)
{
    if (expected == actual)
        return;
    std::string e, a;
    for (const MemEvent &m : expected)
        e += strprintf(" %s(0x%llx)", memEventKindName(m.kind),
                       (unsigned long long)m.addr);
    for (const MemEvent &m : actual)
        a += strprintf(" %s(0x%llx)", memEventKindName(m.kind),
                       (unsigned long long)m.addr);
    diverge(addr, strprintf("memory traffic mismatch: expected [%s ] "
                            "got [%s ]",
                            e.c_str(), a.c_str()));
}

bool
OracleChecker::onAccess(const MemAccess &req)
{
    ++step_;
    const std::uint64_t before = totalDivergences_;

    const std::size_t group = groupOf(req.addr);
    const Addr upper = upperOf(req.addr);
    const Addr pattern = patternOf(upper);
    const Addr block = dut_.geometry().blockAlign(req.addr);
    const bool write = req.type == AccessType::Write;
    const bool wt_store = write && writeThrough_;
    const bool wba_dirty = write && !writeThrough_;

    const PdOutcome expected =
        shadowClassify(group, pattern, upper);
    if (!desynced_) {
        const PdOutcome probed = dut_.classify(req.addr);
        if (probed != expected)
            diverge(req.addr,
                    strprintf("pre-access classify() says %d, shadow "
                              "expects %d",
                              (int)probed, (int)expected));
    }

    AccessOutcome out;
    if (opts_.driveBatched)
        dut_.accessBatch({&req, 1}, &out);
    else
        out = dut_.access(req);
    const std::vector<MemEvent> events = mem_.drain();

    // Shadow update + expected traffic. The only non-deterministic choice
    // (replacement victim of a full group on a PD miss) is resolved by
    // probing which old block actually left the DUT.
    if (!desynced_) {
        if (dut_.lastOutcome() != expected)
            diverge(req.addr,
                    strprintf("lastOutcome() is %d, shadow expects %d",
                              (int)dut_.lastOutcome(), (int)expected));
        const bool exp_hit = expected == PdOutcome::HitAndCacheHit;
        if (out.hit != exp_hit)
            diverge(req.addr, strprintf("DUT %s, shadow expects %s",
                                        out.hit ? "hit" : "miss",
                                        exp_hit ? "hit" : "miss"));

        std::vector<MemEvent> exp;
        bool allocated = false;
        ShadowGroup &g = shadow_[group];
        switch (expected) {
          case PdOutcome::HitAndCacheHit:
            if (wt_store) {
                exp.push_back({MemEvent::Kind::Writeback, block});
                ++expWritethroughs_;
            } else if (write) {
                g.find(pattern)->second.dirty = true;
            }
            break;
          case PdOutcome::HitButCacheMiss:
            ++expPdHitCacheMiss_;
            if (wt_store) {
                exp.push_back({MemEvent::Kind::Writeback, block});
                ++expWritethroughs_;
                break;
            }
            {
                // Forced replacement of the activated line (Section 2.3).
                ShadowLine &l = g.find(pattern)->second;
                if (l.dirty) {
                    exp.push_back({MemEvent::Kind::Writeback,
                                   blockOf(group, l.upper)});
                    ++expWritebacks_;
                }
                exp.push_back({MemEvent::Kind::Read, block});
                ++expRefills_;
                l = {upper, wba_dirty};
                allocated = true;
            }
            break;
          case PdOutcome::Miss:
            ++expPdMiss_;
            if (wt_store) {
                exp.push_back({MemEvent::Kind::Writeback, block});
                ++expWritethroughs_;
                break;
            }
            exp.push_back({MemEvent::Kind::Read, block});
            ++expRefills_;
            allocated = true;
            if (g.size() < layout_.bas) {
                g.emplace(pattern, ShadowLine{upper, wba_dirty});
                ++shadowLines_;
            } else {
                const auto vit = resolveEvicted(group);
                if (vit == g.end()) {
                    diverge(req.addr,
                            "cannot identify the evicted block of a "
                            "full group (zero or several shadow blocks "
                            "vanished); shadow desynced");
                    desynced_ = true;
                } else {
                    if (vit->second.dirty) {
                        exp.insert(exp.begin(),
                                   {MemEvent::Kind::Writeback,
                                    blockOf(group, vit->second.upper)});
                        ++expWritebacks_;
                    }
                    g.erase(vit);
                    g.emplace(pattern, ShadowLine{upper, wba_dirty});
                }
            }
            break;
        }

        if (!desynced_) {
            compareEvents(req.addr, exp, events);
            const Cycles exp_lat =
                allocated ? dut_.hitLatency() + mem_.latency()
                          : dut_.hitLatency();
            if (out.latency != exp_lat)
                diverge(req.addr,
                        strprintf("latency %llu, expected %llu",
                                  (unsigned long long)out.latency,
                                  (unsigned long long)exp_lat));
            if (allocated && !dut_.contains(req.addr))
                diverge(req.addr,
                        "block absent right after an allocating miss");
            expStats_.recordAccess(req.type, exp_hit);
        }
    }

    for (std::string &m : residency_.onAccess(req, out.hit, events))
        diverge(req.addr, std::move(m));

    if (oracle_) {
        const AccessOutcome oout = oracle_->access(req);
        const std::vector<MemEvent> oevents = oracleMem_->drain();
        if (oout.hit != out.hit)
            diverge(req.addr,
                    strprintf("exact oracle %s but DUT %s",
                              oout.hit ? "hits" : "misses",
                              out.hit ? "hits" : "misses"));
        if (oout.latency != out.latency)
            diverge(req.addr,
                    strprintf("exact oracle latency %llu, DUT %llu",
                              (unsigned long long)oout.latency,
                              (unsigned long long)out.latency));
        compareEvents(req.addr, oevents, events);
    }

    checkInvariants(req.addr);
    return totalDivergences_ == before;
}

bool
OracleChecker::onWriteback(Addr addr)
{
    ++step_;
    const std::uint64_t before = totalDivergences_;

    const std::size_t group = groupOf(addr);
    const Addr upper = upperOf(addr);
    const Addr pattern = patternOf(upper);
    const Addr block = dut_.geometry().blockAlign(addr);

    const PdOutcome expected = shadowClassify(group, pattern, upper);

    dut_.writeback(addr);
    const std::vector<MemEvent> events = mem_.drain();

    if (!desynced_) {
        std::vector<MemEvent> exp;
        ShadowGroup &g = shadow_[group];
        if (writeThrough_) {
            // Forwarded straight down; no-write-allocate installs nothing
            // and a resident copy stays clean.
            exp.push_back({MemEvent::Kind::Writeback, block});
            ++expWritethroughs_;
        } else {
            switch (expected) {
              case PdOutcome::HitAndCacheHit:
                g.find(pattern)->second.dirty = true;
                break;
              case PdOutcome::HitButCacheMiss: {
                ShadowLine &l = g.find(pattern)->second;
                if (l.dirty) {
                    exp.push_back({MemEvent::Kind::Writeback,
                                   blockOf(group, l.upper)});
                    ++expWritebacks_;
                }
                l = {upper, true};
                ++expRefills_;
                break;
              }
              case PdOutcome::Miss:
                ++expRefills_;
                if (g.size() < layout_.bas) {
                    g.emplace(pattern, ShadowLine{upper, true});
                    ++shadowLines_;
                } else {
                    const auto vit = resolveEvicted(group);
                    if (vit == g.end()) {
                        diverge(addr,
                                "cannot identify the evicted block of a "
                                "full group during a writeback from "
                                "above; shadow desynced");
                        desynced_ = true;
                    } else {
                        if (vit->second.dirty) {
                            exp.push_back({MemEvent::Kind::Writeback,
                                           blockOf(group,
                                                   vit->second.upper)});
                            ++expWritebacks_;
                        }
                        g.erase(vit);
                        g.emplace(pattern, ShadowLine{upper, true});
                    }
                }
                break;
            }
        }
        if (!desynced_) {
            compareEvents(addr, exp, events);
            if (!writeThrough_ && !dut_.contains(addr))
                diverge(addr, "dirty block absent right after a "
                              "writeback from above (lost write)");
        }
    }

    for (std::string &m : residency_.onWriteback(addr, events))
        diverge(addr, std::move(m));

    if (oracle_) {
        oracle_->writeback(addr);
        compareEvents(addr, oracleMem_->drain(), events);
    }

    checkInvariants(addr);
    return totalDivergences_ == before;
}

void
OracleChecker::checkInvariants(Addr addr)
{
    // A mutation can only break unique decoding in the group it touched:
    // check that group on every step, the whole decoder periodically.
    if (!dut_.checkUniqueDecoding(groupOf(addr)))
        diverge(addr, "unique-decoding invariant violated: two valid PD "
                      "patterns collide within the accessed group");
    if (opts_.residencyScanInterval &&
        step_ % opts_.residencyScanInterval == 0) {
        if (!dut_.checkUniqueDecoding())
            diverge(addr, "unique-decoding invariant violated in an "
                          "untouched group");
        if (!desynced_) {
            const std::size_t dut_valid = dut_.validLines();
            if (dut_valid != shadowLines_)
                diverge(addr,
                        strprintf("validLines() is %zu, shadow holds %zu",
                                  dut_valid, shadowLines_));
        }
        fullResidencyScan();
        compareCounters();
    }
}

void
OracleChecker::fullResidencyScan()
{
    if (desynced_)
        return;
    for (std::size_t g = 0; g < shadow_.size(); ++g) {
        for (const auto &[pat, line] : shadow_[g]) {
            const Addr b = blockOf(g, line.upper);
            if (!dut_.contains(b))
                diverge(b, strprintf("shadow-resident block 0x%llx "
                                     "missing from the DUT",
                                     (unsigned long long)b));
            if (oracle_ && !oracle_->contains(b))
                diverge(b, strprintf("shadow-resident block 0x%llx "
                                     "missing from the exact oracle",
                                     (unsigned long long)b));
        }
    }
}

void
OracleChecker::compareCounters()
{
    if (desynced_)
        return;
    const CacheStats &s = dut_.stats();
    const PdStats &p = dut_.pdStats();

    const auto check = [&](const char *name, std::uint64_t got,
                           std::uint64_t want) {
        if (got != want)
            diverge(0, strprintf("counter %s is %llu, expected %llu",
                                 name, (unsigned long long)got,
                                 (unsigned long long)want));
    };
    check("accesses", s.accesses, expStats_.accesses);
    check("hits", s.hits, expStats_.hits);
    check("misses", s.misses, expStats_.misses);
    check("readAccesses", s.readAccesses(), expStats_.readAccesses());
    check("readMisses", s.readMisses(), expStats_.readMisses());
    check("writeAccesses", s.writeAccesses(), expStats_.writeAccesses());
    check("writeMisses", s.writeMisses(), expStats_.writeMisses());
    check("fetchAccesses", s.fetchAccesses(), expStats_.fetchAccesses());
    check("fetchMisses", s.fetchMisses(), expStats_.fetchMisses());
    check("writebacks", s.writebacks, expWritebacks_);
    check("writethroughs", s.writethroughs, expWritethroughs_);
    check("refills", s.refills, expRefills_);
    check("pdHitCacheMiss", p.pdHitCacheMiss, expPdHitCacheMiss_);
    check("pdMiss", p.pdMiss, expPdMiss_);
}

bool
OracleChecker::finish()
{
    const std::uint64_t before = totalDivergences_;

    if (!dut_.checkUniqueDecoding())
        diverge(0, "unique-decoding invariant violated at end of run");
    if (!desynced_ && dut_.validLines() != shadowLines_)
        diverge(0, strprintf("validLines() is %zu at end of run, shadow "
                             "holds %zu",
                             dut_.validLines(), shadowLines_));
    fullResidencyScan();
    compareCounters();
    for (std::string &m : residency_.finish())
        diverge(0, std::move(m));

    if (oracle_) {
        const CacheStats &d = dut_.stats();
        const CacheStats &o = oracle_->stats();
        const auto check = [&](const char *name, std::uint64_t dv,
                               std::uint64_t ov) {
            if (dv != ov)
                diverge(0, strprintf("exact-oracle counter %s: DUT %llu "
                                     "vs oracle %llu",
                                     name, (unsigned long long)dv,
                                     (unsigned long long)ov));
        };
        check("hits", d.hits, o.hits);
        check("misses", d.misses, o.misses);
        check("writebacks", d.writebacks, o.writebacks);
        check("writethroughs", d.writethroughs, o.writethroughs);
        check("refills", d.refills, o.refills);

        // In the exact limits the way scan/fill orders coincide, so even
        // the per-line Table 7 usage counters must match element-wise.
        const std::span<const SetUsage> du = dut_.setUsage();
        const std::span<const SetUsage> ou = oracle_->setUsage();
        if (du.size() != ou.size()) {
            diverge(0, strprintf("usage histogram size %zu vs oracle %zu",
                                 du.size(), ou.size()));
        } else {
            for (std::size_t i = 0; i < du.size(); ++i) {
                if (du[i] != ou[i]) {
                    diverge(0, strprintf(
                        "per-line usage of line %zu differs from the "
                        "exact oracle (hit %llu/%llu miss %llu/%llu)",
                        i, (unsigned long long)du[i].hits,
                        (unsigned long long)ou[i].hits,
                        (unsigned long long)du[i].misses,
                        (unsigned long long)ou[i].misses));
                    break;
                }
            }
        }
    }
    return totalDivergences_ == before;
}

} // namespace bsim
