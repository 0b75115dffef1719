/**
 * @file
 * Differential verification of the B-Cache against reference oracles,
 * exploiting the paper's two exact-equivalence limits (Section 2):
 *
 *  - BAS = 1 collapses the B-Cache to the baseline direct-mapped cache;
 *  - a PI wide enough to cover the whole upper address (MF saturated)
 *    makes it exactly a BAS-way set-associative cache with 2^NPI sets.
 *
 * In either limit the checker runs a production SetAssocCache with the
 * same replacement policy and seed as a bit-exact oracle. For *all*
 * parameter points — including the interesting middle where no closed-form
 * equivalent exists — it maintains an independent shadow of the
 * programmable decoder (per-group pattern → block maps built only from the
 * observable access sequence, with replacement choices resolved by
 * side-effect-free residency probes) and a fully-associative
 * write-conservation model, and cross-checks on every access:
 *
 *  - hit/miss, PdOutcome classification (pre-access classify() probe,
 *    post-access lastOutcome(), and the shadow's prediction must agree);
 *  - the exact sequence of memory-boundary events (refills, dirty-victim
 *    writebacks, write-through forwards);
 *  - residency (shadow contents vs contains()/validLines());
 *  - the unique-decoding invariant after every mutation;
 *  - aggregate CacheStats/PdStats and, in the exact limits, the per-line
 *    usage histogram (BaseCache::setUsage()) behind Table 7.
 */

#ifndef BSIM_VERIFY_ORACLE_CHECKER_HH
#define BSIM_VERIFY_ORACLE_CHECKER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bcache/bcache.hh"
#include "cache/set_assoc_cache.hh"
#include "verify/residency_model.hh"
#include "verify/tracking_memory.hh"

namespace bsim {

/** One disagreement between the DUT and an oracle. */
struct Divergence
{
    std::uint64_t step = 0; ///< access/writeback sequence number
    Addr addr = 0;          ///< address driving the step
    std::string what;       ///< human-readable description

    std::string toString() const;
};

/** Knobs for one OracleChecker instance. */
struct OracleOptions
{
    /**
     * Upper bound on address bits of the driven stream; used to detect
     * the PI-saturated exact-equivalence limit.
     */
    unsigned addrBits = 32;
    /** Full shadow-residency sweep every N steps (0 = only in finish()). */
    std::uint64_t residencyScanInterval = 8192;
    /** Stop recording after this many divergences. */
    std::size_t maxDivergences = 8;
    /**
     * Drive every DUT access through accessBatch() (one-element batches)
     * instead of access(), so the whole oracle arsenal — classify
     * probes, lastOutcome, event sequences, counters — also polices the
     * batched entry point (the oracle-batched campaign of
     * tests/bsim_verify). Multi-element batches are cross-checked by
     * verify/batch_equiv.
     */
    bool driveBatched = false;
};

/**
 * Drives a BCache and its oracles in lockstep. The DUT's next level must
 * be the TrackingMemory handed to the constructor, and nothing else may
 * touch either while the checker runs.
 */
class OracleChecker
{
  public:
    OracleChecker(BCache &dut, TrackingMemory &mem,
                  const OracleOptions &opts = {});

    /** Present one demand access everywhere; false on new divergence. */
    bool onAccess(const MemAccess &req);

    /** Deliver a dirty writeback from above; false on new divergence. */
    bool onWriteback(Addr addr);

    /** Final conservation / counter / residency checks; false on any. */
    bool finish();

    bool ok() const { return divergences_.empty(); }
    const std::vector<Divergence> &divergences() const
    {
        return divergences_;
    }
    std::uint64_t steps() const { return step_; }

    /** Which oracles are active: "shadow", "shadow+dm", "shadow+sa". */
    std::string oracleModes() const;
    bool hasExactOracle() const { return oracle_ != nullptr; }

  private:
    struct ShadowLine
    {
        Addr upper = 0;
        bool dirty = false;
    };
    /** One victim pool: PD pattern -> line (unique decoding by key). */
    using ShadowGroup = std::unordered_map<Addr, ShadowLine>;

    std::size_t groupOf(Addr addr) const;
    Addr upperOf(Addr addr) const;
    Addr patternOf(Addr upper) const;
    Addr blockOf(std::size_t group, Addr upper) const;

    PdOutcome shadowClassify(std::size_t group, Addr pattern,
                             Addr upper) const;

    /**
     * After the DUT replaced an unknown way of a full group, find which
     * shadow line it evicted by probing contains(); end() on failure
     * (zero or several candidates — itself a divergence).
     */
    ShadowGroup::iterator resolveEvicted(std::size_t group);

    void diverge(Addr addr, std::string what);
    void compareEvents(Addr addr, const std::vector<MemEvent> &expected,
                       const std::vector<MemEvent> &actual);
    void checkInvariants(Addr addr);
    void fullResidencyScan();
    void compareCounters();

    BCache &dut_;
    TrackingMemory &mem_;
    OracleOptions opts_;
    BCacheLayout layout_;
    unsigned offsetBits_;
    bool writeThrough_;

    std::vector<ShadowGroup> shadow_;
    std::size_t shadowLines_ = 0;
    FunctionalResidencyModel residency_;

    /** Exact-equivalence oracle (null outside the two limits). */
    std::unique_ptr<TrackingMemory> oracleMem_;
    std::unique_ptr<SetAssocCache> oracle_;

    // Expected aggregates rebuilt independently of the DUT's counters.
    CacheStats expStats_;
    std::uint64_t expWritebacks_ = 0, expWritethroughs_ = 0;
    std::uint64_t expRefills_ = 0;
    std::uint64_t expPdHitCacheMiss_ = 0, expPdMiss_ = 0;

    std::uint64_t step_ = 0;
    std::uint64_t totalDivergences_ = 0;
    /**
     * Set when the shadow could not follow a replacement decision (only
     * possible after some other bug already diverged the DUT); shadow-based
     * expectations are suspended, the residency/oracle/invariant checks
     * keep running.
     */
    bool desynced_ = false;
    std::vector<Divergence> divergences_;
};

} // namespace bsim

#endif // BSIM_VERIFY_ORACLE_CHECKER_HH
