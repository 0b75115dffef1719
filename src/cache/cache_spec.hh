/**
 * @file
 * The declarative DUT layer: a parsable, printable cache-spec grammar
 * and the registry behind it.
 *
 * A *cache spec* is a short string naming one cache organisation and its
 * parameters, e.g. `bcache:16kB,mf=8,bas=8`, `sa:16kB,8w`,
 * `victim:16kB,16e` (also reachable as `dm:16kB+victim:16`). Every
 * registered variant can be parsed from such a string (or the JSON
 * object equivalent), printed back to its canonical form, and
 * instantiated — `parseCacheSpec(printCacheSpec(c)) == c` holds for any
 * config the registry can produce, which is what lets experiment
 * definitions round-trip through files, CLIs and JSON telemetry without
 * per-variant glue code.
 *
 * Grammar (see docs/ARCHITECTURE.md "Cache-spec registry & sessions"
 * for the authoritative table; scripts/check_specs.sh keeps the two in
 * sync):
 *
 *     spec      := kind ":" size ( "," param )* ( "+victim:" entries )?
 *     param     := count suffix            e.g. "8w" ways, "16e" entries
 *                | key "=" value           e.g. "mf=8", "repl=random"
 *     size      := integer with optional k/kB/M/MB suffix (powers of two
 *                  not required by the grammar; variants validate)
 *
 * Kinds register themselves with the CacheFactory singleton (the
 * BSIM_REGISTER_CACHE_SPEC registrar in cache_spec.cc), carrying their
 * parse/print hooks, synopsis and help text — `bsim --list-caches`
 * enumerates the registry, and adding a tenth variant is one
 * registration, not a scatter of switch statements.
 *
 * Layering: this header owns the *description* (CacheKind, CacheConfig,
 * the grammar, the registry). Instantiation needs every concrete
 * variant, so CacheConfig::build()/bcacheParams() are defined in
 * sim/config.cc — the one translation unit that already links the
 * bcache and alt libraries (and whose direct constructor references
 * keep those objects linked into every binary, so the registry is never
 * silently missing a variant).
 */

#ifndef BSIM_CACHE_CACHE_SPEC_HH
#define BSIM_CACHE_CACHE_SPEC_HH

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/base_cache.hh"
#include "cache/hierarchy.hh"
#include "cache/replacement.hh"

namespace bsim {

struct BCacheParams;
struct JsonValue;

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

    /**
     * Instantiate the described cache (defined in sim/config.cc, the
     * unit that links every variant library).
     */
    std::unique_ptr<BaseCache> build(const std::string &name,
                                     Cycles hit_latency = 1,
                                     MemLevel *next = nullptr) const;

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
};

/** Field-wise equality (the round-trip contract compares with this). */
bool operator==(const CacheConfig &a, const CacheConfig &b);
inline bool
operator!=(const CacheConfig &a, const CacheConfig &b)
{
    return !(a == b);
}

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

    /** The value of @p key, or @p fallback when absent. */
    std::uint64_t count(const std::string &key, std::uint64_t fallback);
    /** A size-valued parameter ("sub=1kB"). */
    std::uint64_t size(const std::string &key, std::uint64_t fallback);
    /** A string-valued parameter ("repl=random"). */
    std::string word(const std::string &key, const std::string &fallback);
    /**
     * A bare suffixed count like "8w" / "16e"; @p fallback when no token
     * carries the suffix.
     */
    std::uint64_t suffixed(char suffix, std::uint64_t fallback);
    /** True when the key or suffix was present at all. */
    bool has(const std::string &key) const;

    /** Throw CacheSpecError on any token no accessor consumed. */
    void finish(const std::string &accepted) const;

  private:
    struct Token
    {
        std::string text;  ///< verbatim, for diagnostics
        std::string key;   ///< empty for suffixed counts
        std::string value; ///< value text (or the count digits)
        bool used = false;
    };
    Token *find(const std::string &key);

    std::string kind_;
    std::vector<Token> tokens_;
};

/** One registered cache organisation. */
struct CacheSpecEntry
{
    /** Canonical kind token ("bcache"); printCacheSpec leads with it. */
    std::string name;
    /** Accepted alternative tokens ("setassoc" for "sa"). */
    std::vector<std::string> aliases;
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
    /** Entry that prints configs of @p kind; never null once built. */
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
 * scope in cache_spec.cc so every grammar lives next to the registry —
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

/**
 * Parse the JSON object form: {"kind": "bcache", "size": "16kB",
 * "mf": 8, ...} — keys match the grammar's parameter names, size-valued
 * fields accept either a number or a size string. Throws CacheSpecError.
 */
CacheConfig cacheSpecFromJson(const JsonValue &v);

/** The `--list-caches` readout: one block per registered variant. */
std::string listCacheSpecs();

/**
 * A composed hierarchy description: L1 spec (itself possibly a
 * `dm+victim` composition) over the shared L2 and main memory of
 * cache/hierarchy.hh.
 */
struct HierarchySpec
{
    CacheConfig l1;
    HierarchyParams params;
};

bool operator==(const HierarchySpec &a, const HierarchySpec &b);

/**
 * Parse `<l1-spec>[/l2:<size>,<N>w,<B>l,<C>c][/mem:<C>c]`, e.g.
 * `bcache:16kB,mf=8,bas=8/l2:256kB,4w,128l,6c/mem:100c`. Omitted
 * stages keep the paper's Table 4 defaults. Throws CacheSpecError.
 */
HierarchySpec parseHierarchySpec(const std::string &spec);

/** Canonical form; parseHierarchySpec(printHierarchySpec(h)) == h. */
std::string printHierarchySpec(const HierarchySpec &spec);

} // namespace bsim

#endif // BSIM_CACHE_CACHE_SPEC_HH
