/**
 * @file
 * The declarative DUT layer: a parsable, printable cache-spec grammar
 * and the registry behind it.
 *
 * A *cache spec* is a short string naming one cache organisation and its
 * parameters, e.g. `bcache:16kB,mf=8,bas=8`, `sa:16kB,8w`,
 * `victim:16kB,16e` (also reachable as `dm:16kB+victim:16`). Every
 * registered variant can be parsed from such a string, printed back to
 * its canonical form, and instantiated — `parseCacheSpec(printCacheSpec(c))
 * == c` holds for any config the registry can produce, which is what
 * lets experiment definitions round-trip through CLIs and JSON
 * telemetry without per-variant glue code.
 *
 * Grammar (see docs/ARCHITECTURE.md "Cache-spec registry & sessions"
 * for the authoritative table; scripts/check_specs.sh keeps the two in
 * sync):
 *
 *     spec      := kind ":" size ( "," param )* ( "+victim:" entries )?
 *     param     := count suffix            e.g. "8w" ways, "16e" entries
 *                | key "=" value           e.g. "mf=8", "repl=random"
 *     size      := integer with optional k/kB/M/MB suffix, at most
 *                  kMaxSpecBytes (powers of two not required by the
 *                  grammar; variants validate)
 *
 * Each variant is one BSIM_REGISTER_CACHE_SPEC block in cache_spec.cc
 * carrying everything that differs between organisations: its
 * parse/print hooks, synopsis and help text, and its build, access-time,
 * energy and side-counter hooks. `bsim --list-caches` enumerates the
 * registry; CacheConfig::build(), evaluateAmat() and energyRatesFor()
 * dispatch through it, so adding a tenth variant is one registration,
 * not a scatter of switch statements.
 *
 * Layering: the registry lives in sim/ because its hooks need every
 * concrete variant (cache/, bcache/, alt/) and the power/ and timing/
 * models, and bsim_sim is the library that links them all. The
 * registrars sit in the same translation unit as parseCacheSpec() and
 * CacheConfig::build(), so any binary that names a cache links every
 * variant.
 */

#ifndef BSIM_SIM_CACHE_SPEC_HH
#define BSIM_SIM_CACHE_SPEC_HH

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bcache/bcache.hh"
#include "cache/base_cache.hh"
#include "cache/replacement.hh"
#include "power/energy_model.hh"

namespace bsim {

/** Which organisation a CacheConfig describes. */
enum class CacheKind : std::uint8_t {
    SetAssoc,     ///< includes the direct-mapped baseline (ways = 1)
    Victim,       ///< direct-mapped + victim buffer
    BCache,       ///< the paper's contribution
    ColumnAssoc,  ///< related work (Section 7.1)
    Skewed,       ///< related work (Section 7.1)
    Hac,          ///< highly associative CAM-tag cache (Section 6.7)
    XorDm,        ///< XOR-mapped direct-mapped (indexing optimisation)
    PartialMatch, ///< way-predicting SA cache (Section 7.2)
};

/** Largest value a spec count may carry (CacheConfig's 32-bit fields). */
inline constexpr std::uint64_t kMaxSpecCount = 0xffffffffu;

/** Largest victim buffer a spec may ask for (`<N>e`, `+victim:<N>`). */
inline constexpr std::uint64_t kMaxVictimEntries = 65536;

/**
 * Largest size a spec may name (the cache size and `sub=`): 64 MB. The
 * largest cache any harness simulates is the 256 kB Table 4 L2, so the
 * cap leaves a 256x margin, while every accepted spec still builds in a
 * few hundred MB of host memory (a 64 MB direct-mapped cache is 2 M
 * lines) instead of dying in the allocator.
 */
inline constexpr std::uint64_t kMaxSpecBytes = std::uint64_t{64} << 20;

/**
 * The counters only some variants keep, beyond CacheStats. Variants
 * without one leave it at its zero default.
 */
struct SideCounters
{
    std::optional<PdStats> pd;      ///< B-Cache decoder taxonomy
    std::uint64_t victimHits = 0;   ///< victim buffer hits
    std::uint64_t victimProbes = 0; ///< victim buffer searches
};

/**
 * One declarative cache description — the value a spec string parses
 * into and the unit every runner/session consumes.
 */
struct CacheConfig
{
    CacheKind kind = CacheKind::SetAssoc;
    std::string label;
    std::uint64_t sizeBytes = 16 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t ways = 1;
    ReplPolicyKind repl = ReplPolicyKind::LRU;
    /** Honoured by SetAssoc and BCache kinds; others are write-back. */
    WritePolicy writePolicy = WritePolicy::WriteBackAllocate;
    std::size_t victimEntries = 16;
    std::uint32_t mf = 8;   ///< B-Cache only
    std::uint32_t bas = 8;  ///< B-Cache only
    std::uint64_t hacSubarrayBytes = 1024;
    unsigned partialBits = 5; ///< PartialMatch only

    /** Instantiate the described cache (the registry's build hook). */
    std::unique_ptr<BaseCache> build(const std::string &name,
                                     Cycles hit_latency = 1,
                                     MemLevel *next = nullptr) const;

    /**
     * The variant's side counters, read off @p cache — which must have
     * been built from this config (the registry's side hook).
     */
    SideCounters sideCounters(const BaseCache &cache) const;

    /** B-Cache parameter block (kind must be BCache). */
    BCacheParams bcacheParams() const;

    // ---- factory helpers ----
    static CacheConfig directMapped(std::uint64_t size,
                                    std::uint32_t line = 32);
    static CacheConfig setAssoc(std::uint64_t size, std::uint32_t ways,
                                ReplPolicyKind repl = ReplPolicyKind::LRU,
                                std::uint32_t line = 32);
    static CacheConfig victim(std::uint64_t size,
                              std::size_t entries = 16,
                              std::uint32_t line = 32);
    static CacheConfig bcache(std::uint64_t size, std::uint32_t mf,
                              std::uint32_t bas,
                              ReplPolicyKind repl = ReplPolicyKind::LRU,
                              std::uint32_t line = 32);
    static CacheConfig columnAssoc(std::uint64_t size,
                                   std::uint32_t line = 32);
    static CacheConfig skewed(std::uint64_t size, std::uint32_t line = 32);
    static CacheConfig hac(std::uint64_t size,
                           std::uint64_t subarray = 1024,
                           std::uint32_t line = 32);
    static CacheConfig xorDm(std::uint64_t size, std::uint32_t line = 32);
    static CacheConfig partialMatch(std::uint64_t size,
                                    std::uint32_t ways = 2,
                                    unsigned partial_bits = 5,
                                    std::uint32_t line = 32);

    /** Field-wise equality (the round-trip contract compares with this). */
    bool operator==(const CacheConfig &) const = default;
};

/**
 * A malformed spec. The message always names the offending token and
 * what would have been accepted, so a CLI can surface it verbatim.
 */
class CacheSpecError : public std::runtime_error
{
  public:
    explicit CacheSpecError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * Key=value parameter list handed to a variant's parse hook. Accessors
 * mark keys as consumed; finish() turns any unconsumed key into a
 * CacheSpecError naming the expected set — so "unknown parameter"
 * diagnostics are uniform across variants.
 */
class SpecParams
{
  public:
    SpecParams(std::string kind, std::vector<std::string> tokens);

    /**
     * The value of @p key ("line" for "line=64", the suffix "w" for a
     * suffixed count like "8w"), or @p fallback when absent. A signed,
     * overflowing or above-@p max value throws, quoting the token; the
     * default bound is the 32-bit range of CacheConfig's count fields.
     */
    std::uint64_t count(const std::string &key, std::uint64_t fallback,
                        std::uint64_t max = kMaxSpecCount);
    /** A size-valued parameter ("sub=1kB"). */
    std::uint64_t size(const std::string &key, std::uint64_t fallback);
    /** A string-valued parameter ("repl=random"). */
    std::string word(const std::string &key, const std::string &fallback);
    /** True when the key or suffix was present at all. */
    bool has(const std::string &key) const;

    /** Throw CacheSpecError on any token no accessor consumed. */
    void finish(const std::string &accepted) const;

  private:
    struct Token
    {
        std::string text;  ///< verbatim, for diagnostics
        std::string key;   ///< the suffix letter for suffixed counts
        std::string value; ///< value text (or the count digits)
        bool used = false;
    };
    Token *find(const std::string &key);

    std::string kind_;
    std::vector<Token> tokens_;
};

/**
 * One registered cache organisation: everything that differs between
 * variants. The hooks after printParams take a config this entry
 * parsed (or a factory helper of its kind built).
 */
struct CacheSpecEntry
{
    /** Canonical kind token ("bcache"); printCacheSpec leads with it. */
    std::string name;
    /** Accepted alternative tokens ("setassoc" for "sa"). */
    std::vector<std::string> aliases = {};
    /** Grammar synopsis, e.g. "bcache:<size>[,mf=N][,bas=N]...". */
    std::string synopsis;
    /** One-line description for --list-caches. */
    std::string help;
    CacheKind kind;
    /** Build a config from `<size>` and the remaining parameters. */
    std::function<CacheConfig(std::uint64_t size, SpecParams &params)>
        parse;
    /** Canonical parameter tail ("" when size alone round-trips). */
    std::function<std::string(const CacheConfig &)> printParams;
    /** Instantiate the cache (CacheConfig::build). */
    std::function<std::unique_ptr<BaseCache>(
        const CacheConfig &, const std::string &name, Cycles hit_latency,
        MemLevel *next)>
        build;
    /** Raw L1 access time, which sets the clock in evaluateAmat(). */
    std::function<NanoSeconds(const CacheConfig &)> accessTime;
    /**
     * Per-access L1 energy: l1iAccess = l1dAccess, plus victimProbe and
     * pdMissRefund where the variant has them. energyRatesFor() adds
     * the shared L2, refill and off-chip terms.
     */
    std::function<EnergyRates(const CacheConfig &)> energy;
    /**
     * Side counters of a cache this entry built; null for variants
     * that keep none.
     */
    std::function<SideCounters(const BaseCache &)> side = nullptr;
};

/**
 * The self-registering spec registry: every variant's grammar entry,
 * keyed by kind token (plus aliases), in registration order.
 */
class CacheFactory
{
  public:
    static CacheFactory &instance();

    /** Register a variant (normally via BSIM_REGISTER_CACHE_SPEC). */
    void registerEntry(CacheSpecEntry entry);

    /** Entry by name or alias (case-insensitive); null when unknown. */
    const CacheSpecEntry *find(const std::string &name) const;
    /**
     * The entry whose hooks serve configs of @p kind (for SetAssoc, the
     * first of dm/sa, which share them); never null once built.
     */
    const CacheSpecEntry *entryFor(CacheKind kind) const;
    /** All entries, registration order. */
    const std::vector<CacheSpecEntry> &entries() const
    {
        return entries_;
    }

  private:
    CacheFactory() = default;
    std::vector<CacheSpecEntry> entries_;
};

/** Registrar: constructing one registers the entry (used at namespace
 * scope in cache_spec.cc so every variant lives next to the registry —
 * one TU, so no static-init-order or dead-stripping hazards). */
struct CacheSpecRegistrar
{
    explicit CacheSpecRegistrar(CacheSpecEntry entry);
};

#define BSIM_REGISTER_CACHE_SPEC(ident, ...) \
    static const ::bsim::CacheSpecRegistrar ident{__VA_ARGS__};

/**
 * Parse a spec string. Throws CacheSpecError with an actionable message
 * on malformed input, or on a well-formed spec the variant cannot build
 * (so an accepted spec always builds); never fatals (CLIs turn the
 * message into usage text, fuzzers catch it).
 */
CacheConfig parseCacheSpec(const std::string &spec);

/**
 * Canonical spec for @p config — parseCacheSpec(printCacheSpec(c)) == c
 * for every config the registry can produce (pinned per variant by
 * tests/test_cache_spec.cc).
 */
std::string printCacheSpec(const CacheConfig &config);

/** The `--list-caches` readout: one block per registered variant. */
std::string listCacheSpecs();

} // namespace bsim

#endif // BSIM_SIM_CACHE_SPEC_HH
