#include "sim/cache_spec.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "alt/column_assoc_cache.hh"
#include "alt/hac_cache.hh"
#include "alt/partial_match_cache.hh"
#include "alt/skewed_assoc_cache.hh"
#include "alt/way_halting_cache.hh"
#include "alt/xor_index_cache.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/victim_cache.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "power/cacti_lite.hh"
#include "timing/decoder_model.hh"
#include "timing/logical_effort.hh"

namespace bsim {

namespace {

/** Replacement-policy lookup through the grammar's error channel. */
ReplPolicyKind
replFromSpec(const std::string &name)
{
    if (const auto kind = replPolicyFromName(name))
        return *kind;
    throw CacheSpecError("unknown replacement policy '" + name +
                         "'; expected lru|random|fifo|plru|nmru");
}

WritePolicy
writePolicyFromSpec(const std::string &name)
{
    const std::string n = toLower(name);
    if (n == "wb")
        return WritePolicy::WriteBackAllocate;
    if (n == "wt")
        return WritePolicy::WriteThroughNoAllocate;
    throw CacheSpecError("unknown write policy '" + name +
                         "'; expected wb (write-back/allocate) or wt "
                         "(write-through/no-allocate)");
}

const char *
writePolicySpecToken(WritePolicy p)
{
    return p == WritePolicy::WriteBackAllocate ? "wb" : "wt";
}

/** True when @p text starts with a decimal digit (no sign, no blank). */
bool
leadsWithDigit(const std::string &text)
{
    return !text.empty() &&
           std::isdigit(static_cast<unsigned char>(text[0]));
}

CacheSpecError
outOfRange(const std::string &what, const std::string &token,
           std::uint64_t max)
{
    return CacheSpecError(what + " '" + token +
                          "' is out of range (at most " +
                          std::to_string(max) + ")");
}

/**
 * Parse "16kB" / "16k" / "2MB" / "16384" into bytes, at most
 * kMaxSpecBytes. The canonical printer uses sizeString(), so its kB/MB
 * forms must parse back.
 */
std::uint64_t
parseSize(const std::string &text, const std::string &what)
{
    if (text.empty())
        throw CacheSpecError("empty " + what +
                             "; expected e.g. 16kB, 32k or 16384");
    // strtoull would accept a sign (wrapping "-16kB") and leading
    // blanks, so the digits must come first.
    char *end = nullptr;
    errno = 0;
    const unsigned long long n =
        leadsWithDigit(text) ? std::strtoull(text.c_str(), &end, 10) : 0;
    if (end == nullptr)
        throw CacheSpecError("bad " + what + " '" + text +
                             "'; expected e.g. 16kB, 32k or 16384");
    std::string suffix = toLower(end);
    std::uint64_t scale = 1;
    if (suffix == "k" || suffix == "kb")
        scale = 1ull << 10;
    else if (suffix == "m" || suffix == "mb")
        scale = 1ull << 20;
    else if (!suffix.empty() && suffix != "b")
        throw CacheSpecError("bad " + what + " suffix '" +
                             std::string(end) +
                             "' in '" + text + "'; expected k/kB/M/MB "
                             "or a plain byte count");
    if (n == 0)
        throw CacheSpecError(what + " must be nonzero in '" + text + "'");
    if (errno == ERANGE || n > kMaxSpecBytes / scale)
        throw outOfRange(what, text, kMaxSpecBytes);
    return n * scale;
}

/**
 * Parse the decimal count @p digits, at most @p max; errors quote
 * @p token, the parameter as typed.
 */
std::uint64_t
specCount(const std::string &digits, const std::string &what,
          std::uint64_t max, const std::string &token)
{
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(), [](unsigned char ch) {
            return std::isdigit(ch);
        }))
        throw CacheSpecError("bad " + what + " '" + token +
                             "'; expected a decimal count");
    // Digits only, so parseCount fails on overflow alone.
    const std::optional<std::uint64_t> n = parseCount(digits, 10);
    if (!n || *n > max)
        throw outOfRange(what, token, max);
    return *n;
}

/** Shared `[,repl=R][,wp=P][,line=B]` canonical tail. */
std::string
commonTail(const CacheConfig &c, bool with_wp)
{
    std::string out;
    if (c.repl != ReplPolicyKind::LRU)
        out += std::string(",repl=") + replPolicyName(c.repl);
    if (with_wp && c.writePolicy != WritePolicy::WriteBackAllocate)
        out += std::string(",wp=") + writePolicySpecToken(c.writePolicy);
    if (c.lineBytes != 32)
        out += ",line=" + std::to_string(c.lineBytes);
    return out;
}

/** The `[,line=B]` tail of the variants with no other parameter. */
std::string
lineTail(const CacheConfig &c)
{
    return c.lineBytes != 32 ? ",line=" + std::to_string(c.lineBytes)
                             : std::string();
}

void
applyCommon(CacheConfig &c, SpecParams &p, bool with_wp)
{
    if (p.has("repl"))
        c.repl = replFromSpec(p.word("repl", "lru"));
    if (with_wp && p.has("wp"))
        c.writePolicy = writePolicyFromSpec(p.word("wp", "wb"));
}

// The require* checks reject at parse time every shape a variant's
// constructor would refuse, so an accepted spec always builds.

void
require(bool ok, const std::string &kind, const std::string &why)
{
    if (!ok)
        throw CacheSpecError(kind + ": " + why);
}

/**
 * CacheGeometry's rules (mem/geometry.hh): power-of-two size, line and
 * ways, and at least one whole set; plus at most kMaxSpecLines lines,
 * and lines of at least 2 B (a TagStore key must drop an address bit).
 * Returns the set count.
 */
std::uint64_t
requireGeometry(const std::string &kind, std::uint64_t size,
                std::uint64_t line, std::uint64_t ways)
{
    require(isPowerOfTwo(size), kind,
            "size " + std::to_string(size) + " is not a power of two");
    require(isPowerOfTwo(line), kind,
            "line=" + std::to_string(line) + " is not a power of two");
    require(isPowerOfTwo(ways), kind,
            std::to_string(ways) + " ways is not a power of two");
    require(size >= line * ways, kind,
            "size " + std::to_string(size) +
                " is smaller than one set (line x ways = " +
                std::to_string(line * ways) + ")");
    require(size / line <= kMaxSpecLines, kind,
            "size " + std::to_string(size) + " / line=" +
                std::to_string(line) + " is " +
                std::to_string(size / line) + " lines (at most " +
                std::to_string(kMaxSpecLines) + ")");
    require(line >= 2, kind,
            "a 1-byte line leaves no bit for the empty-frame marker; "
            "lines must be at least 2 B");
    return size / line / ways;
}

void
requireEntries(std::size_t entries)
{
    require(entries > 0, "victim",
            "the buffer needs at least one entry (1e)");
}

} // namespace

// ---------------------------------------------------------------------
// SpecParams

SpecParams::SpecParams(std::string kind, std::vector<std::string> tokens)
    : kind_(std::move(kind))
{
    for (std::string &t : tokens) {
        Token tok;
        tok.text = t;
        const std::size_t eq = t.find('=');
        if (eq != std::string::npos) {
            tok.key = toLower(t.substr(0, eq));
            tok.value = t.substr(eq + 1);
            if (tok.key.empty() || tok.value.empty())
                throw CacheSpecError(kind_ + ": malformed parameter '" +
                                     t + "'; expected key=value");
        } else {
            // Suffixed count: digits followed by one letter ("8w").
            std::size_t i = 0;
            while (i < t.size() &&
                   std::isdigit(static_cast<unsigned char>(t[i])))
                ++i;
            if (i == 0 || i + 1 != t.size())
                throw CacheSpecError(
                    kind_ + ": malformed parameter '" + t +
                    "'; expected key=value or a suffixed count like "
                    "8w / 16e");
            tok.key = std::string(1, static_cast<char>(std::tolower(
                          static_cast<unsigned char>(t[i]))));
            tok.value = t.substr(0, i);
        }
        tokens_.push_back(std::move(tok));
    }
}

SpecParams::Token *
SpecParams::find(const std::string &key)
{
    for (Token &t : tokens_)
        if (t.key == key)
            return &t;
    return nullptr;
}

bool
SpecParams::has(const std::string &key) const
{
    for (const Token &t : tokens_)
        if (t.key == key)
            return true;
    return false;
}

std::uint64_t
SpecParams::count(const std::string &key, std::uint64_t fallback,
                  std::uint64_t max)
{
    Token *t = find(key);
    if (!t)
        return fallback;
    t->used = true;
    return specCount(t->value, kind_ + " parameter", max, t->text);
}

std::uint64_t
SpecParams::size(const std::string &key, std::uint64_t fallback)
{
    Token *t = find(key);
    if (!t)
        return fallback;
    t->used = true;
    return parseSize(t->value, kind_ + " parameter " + key);
}

std::string
SpecParams::word(const std::string &key, const std::string &fallback)
{
    Token *t = find(key);
    if (!t)
        return fallback;
    t->used = true;
    return t->value;
}

void
SpecParams::finish(const std::string &accepted) const
{
    for (const Token &t : tokens_)
        if (!t.used)
            throw CacheSpecError(kind_ + ": unknown parameter '" +
                                 t.text + "'; accepted: " + accepted);
}

// ---------------------------------------------------------------------
// Hooks shared by several variants

namespace {

/** Tag width the HAC's CAM search compares (timing and energy). */
constexpr unsigned kCamTagBits = 26;

CacheGeometry
geometryOf(const CacheConfig &c, std::uint32_t ways)
{
    return CacheGeometry(c.sizeBytes, c.lineBytes, ways);
}

/** Build hook of a variant constructed as T(name, geometry, lat, next). */
template <class T, std::uint32_t Ways>
std::unique_ptr<BaseCache>
buildPlain(const CacheConfig &c, const std::string &name, Cycles lat,
           MemLevel *next)
{
    return std::make_unique<T>(name, geometryOf(c, Ways), lat, next);
}

/**
 * Access time of the plain direct-mapped array of the config's size:
 * the B-Cache's by the Table 1 slack argument, and the first probe of
 * the victim, column, XOR and PAD organisations.
 */
NanoSeconds
dmAccessTime(const CacheConfig &c)
{
    return cacheAccessTime(c.sizeBytes, c.lineBytes, 1);
}

CacheOrg
orgOf(const CacheConfig &c, std::uint32_t ways)
{
    CacheOrg org;
    org.sizeBytes = c.sizeBytes;
    org.lineBytes = c.lineBytes;
    org.ways = ways;
    return org;
}

/** The L1 terms of an L1 whose every access costs @p access. */
EnergyRates
l1Energy(PicoJoules access)
{
    EnergyRates r;
    r.l1iAccess = r.l1dAccess = access;
    return r;
}

/** A conventional @p ways-way array of the config's size and line. */
EnergyRates
conventionalEnergy(const CacheConfig &c, std::uint32_t ways)
{
    return l1Energy(CactiLite::conventional(orgOf(c, ways)).total());
}

/**
 * The direct-mapped array's energy: the column cache's, and the XOR
 * cache's (its index stage is a handful of gates).
 */
EnergyRates
dmEnergy(const CacheConfig &c)
{
    return conventionalEnergy(c, 1);
}

// dm and sa are one organisation under two spellings; skew's timing and
// energy are a 2-way array's, and pad's energy an SA array read in full.

/** `[,<N>w]` (a 1-way config prints as dm:) and the common tail. */
std::string
setAssocTail(const CacheConfig &c)
{
    return (c.ways == 1 ? std::string()
                        : "," + std::to_string(c.ways) + "w") +
           commonTail(c, true);
}

std::unique_ptr<BaseCache>
buildSetAssoc(const CacheConfig &c, const std::string &name, Cycles lat,
              MemLevel *next)
{
    return std::make_unique<SetAssocCache>(name, geometryOf(c, c.ways),
                                           lat, next, c.repl,
                                           /*repl_seed=*/1,
                                           c.writePolicy);
}

NanoSeconds
setAssocAccessTime(const CacheConfig &c)
{
    return cacheAccessTime(c.sizeBytes, c.lineBytes, c.ways);
}

EnergyRates
setAssocEnergy(const CacheConfig &c)
{
    return conventionalEnergy(c, c.ways);
}

/** A config of @p kind and @p size, every other field at its default. */
CacheConfig
configOf(CacheKind kind, std::uint64_t size)
{
    CacheConfig c;
    c.kind = kind;
    c.sizeBytes = size;
    return c;
}

/** A count parameter that fills one of CacheConfig's 32-bit fields. */
std::uint32_t
count32(SpecParams &p, const std::string &key, std::uint32_t fallback)
{
    return static_cast<std::uint32_t>(p.count(key, fallback));
}

/** `<size>-dm` for the 1-way config, else `<N>way`. */
std::string
setAssocLabel(const CacheConfig &c)
{
    return c.ways == 1 ? sizeString(c.sizeBytes) + "-dm"
                       : strprintf("%uway", c.ways);
}

/** The dm and sa parse hooks: the same fields, spelled two ways. */
CacheConfig
parseSetAssoc(const std::string &kind, std::uint64_t size, SpecParams &p,
              std::uint32_t ways, const std::string &accepted)
{
    CacheConfig c = configOf(CacheKind::SetAssoc, size);
    c.ways = ways;
    c.lineBytes = count32(p, "line", 32);
    applyCommon(c, p, true);
    p.finish(accepted);
    requireGeometry(kind, size, c.lineBytes, c.ways);
    return c;
}

} // namespace

// ---------------------------------------------------------------------
// The registry: the ten variants, one entry each.

const std::vector<CacheSpecEntry> &
cacheSpecEntries()
{
    static const std::vector<CacheSpecEntry> entries = {
        {.name = "dm",
         .aliases = {"direct", "directmapped"},
         .synopsis = "dm:<size>[,line=B]",
         .help = "direct-mapped baseline (conventional decoder)",
         .kind = CacheKind::SetAssoc,
         .parse = [](std::uint64_t size, SpecParams &p) {
             return parseSetAssoc("dm", size, p, 1, "line=, repl=, wp=");
         },
         .label = setAssocLabel,
         .printParams = setAssocTail,
         .build = buildSetAssoc,
         .accessTime = setAssocAccessTime,
         .energy = setAssocEnergy},
        {.name = "sa",
         .aliases = {"setassoc"},
         .synopsis = "sa:<size>,<N>w[,repl=R][,wp=wb|wt][,line=B]",
         .help = "set-associative (LRU default; ways=1 prints as dm:)",
         .kind = CacheKind::SetAssoc,
         .parse = [](std::uint64_t size, SpecParams &p) {
             return parseSetAssoc("sa", size, p, count32(p, "w", 1),
                                  "Nw, repl=, wp=, line=");
         },
         .label = setAssocLabel,
         .printParams = setAssocTail,
         .build = buildSetAssoc,
         .accessTime = setAssocAccessTime,
         .energy = setAssocEnergy},
        {.name = "victim",
         .synopsis =
             "victim:<size>[,<N>e][,line=B]   (also: dm:<size>+victim:<N>)",
         .help = "direct-mapped + fully associative victim buffer",
         .kind = CacheKind::Victim,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::Victim, size);
             c.victimEntries = p.count("e", 16, kMaxVictimEntries);
             c.lineBytes = count32(p, "line", 32);
             p.finish("Ne, line=");
             requireGeometry("victim", size, c.lineBytes, 1);
             requireEntries(c.victimEntries);
             return c;
         },
         .label = [](const CacheConfig &c) {
             return strprintf("victim%zu", c.victimEntries);
         },
         .printParams = [](const CacheConfig &c) {
             return "," + std::to_string(c.victimEntries) + "e" +
                    lineTail(c);
         },
         .build = [](const CacheConfig &c, const std::string &name,
                     Cycles lat, MemLevel *next) -> std::unique_ptr<BaseCache> {
             return std::make_unique<VictimCache>(name, geometryOf(c, 1), lat,
                                                  next, c.victimEntries);
         },
         .accessTime = dmAccessTime,
         .energy = [](const CacheConfig &c) {
             EnergyRates r = dmEnergy(c);
             r.victimProbe = CactiLite::victimBufferProbeEnergy(
                 c.victimEntries, c.lineBytes);
             return r;
         },
         .side = [](const BaseCache &cache) -> SideCounters {
             const auto &vc = static_cast<const VictimCache &>(cache);
             return {{"victimHits", vc.victimHits()},
                     {"victimProbes", vc.victimProbes()}};
         }},
        {.name = "bcache",
         .aliases = {"bc"},
         .synopsis =
             "bcache:<size>[,mf=N][,bas=N][,repl=R][,wp=wb|wt][,line=B]",
         .help = "the paper's B-Cache (programmable decoder, MF/BAS)",
         .kind = CacheKind::BCache,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::BCache, size);
             c.mf = count32(p, "mf", 8);
             c.bas = count32(p, "bas", 8);
             c.lineBytes = count32(p, "line", 32);
             applyCommon(c, p, true);
             p.finish("mf=, bas=, repl=, wp=, line=");
             const std::uint64_t sets =
                 requireGeometry("bcache", size, c.lineBytes, 1);
             require(isPowerOfTwo(c.mf), "bcache",
                     "mf=" + std::to_string(c.mf) + " is not a power of two");
             require(isPowerOfTwo(c.bas), "bcache",
                     "bas=" + std::to_string(c.bas) +
                         " is not a power of two");
             require(c.bas <= sets, "bcache",
                     "bas=" + std::to_string(c.bas) +
                         " exceeds the number of sets (" +
                         std::to_string(sets) + ")");
             return c;
         },
         .label = [](const CacheConfig &c) {
             return strprintf("MF%u-BAS%u", c.mf, c.bas);
         },
         .printParams = [](const CacheConfig &c) {
             return ",mf=" + std::to_string(c.mf) +
                    ",bas=" + std::to_string(c.bas) + commonTail(c, true);
         },
         .build = [](const CacheConfig &c, const std::string &name,
                     Cycles lat, MemLevel *next) -> std::unique_ptr<BaseCache> {
             return std::make_unique<BCache>(name, c.bcacheParams(), lat,
                                             next);
         },
         .accessTime = dmAccessTime,
         .energy = [](const CacheConfig &c) {
             const CacheEnergyBreakdown e = CactiLite::bcache(c.bcacheParams());
             EnergyRates r = l1Energy(e.total());
             // A PD-predicted miss skips the SRAM array reads; only the
             // CAM search and decode energy is spent.
             r.pdMissRefund = e.tagSense + e.tagBitWordline + e.dataSense +
                              e.dataBitWordline + e.dataOther;
             return r;
         },
         .side = [](const BaseCache &cache) -> SideCounters {
             const PdStats &pd = static_cast<const BCache &>(cache).pdStats();
             return {{"pdHitCacheMiss", pd.pdHitCacheMiss},
                     {"pdMiss", pd.pdMiss}};
         }},
        {.name = "column",
         .aliases = {"ca"},
         .synopsis = "column:<size>[,line=B]",
         .help = "column-associative DM (rehash second location)",
         .kind = CacheKind::ColumnAssoc,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::ColumnAssoc, size);
             c.lineBytes = count32(p, "line", 32);
             p.finish("line=");
             require(requireGeometry("column", size, c.lineBytes, 1) >= 2,
                     "column", "the rehash needs at least two sets");
             return c;
         },
         .label = [](const CacheConfig &) { return std::string("column"); },
         .printParams = lineTail,
         .build = buildPlain<ColumnAssocCache, 1>,
         .accessTime = dmAccessTime,
         .energy = dmEnergy,
         .side = [](const BaseCache &cache) -> SideCounters {
             const auto &ca = static_cast<const ColumnAssocCache &>(cache);
             return {{"firstHits", ca.firstHits()},
                     {"rehashHits", ca.rehashHits()}};
         }},
        {.name = "skew",
         .aliases = {"skewed"},
         .synopsis = "skew:<size>[,line=B]",
         .help = "two-way skewed-associative (per-bank hash)",
         .kind = CacheKind::Skewed,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::Skewed, size);
             c.ways = 2;
             c.lineBytes = count32(p, "line", 32);
             p.finish("line=");
             requireGeometry("skew", size, c.lineBytes, 2);
             return c;
         },
         .label = [](const CacheConfig &) { return std::string("skewed2"); },
         .printParams = lineTail,
         .build = buildPlain<SkewedAssocCache, 2>,
         .accessTime = setAssocAccessTime,
         .energy = setAssocEnergy},
        {.name = "hac",
         .synopsis = "hac:<size>[,sub=S][,repl=R][,line=B]",
         .help = "highly associative CAM-tag cache (per-subarray FA)",
         .kind = CacheKind::Hac,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::Hac, size);
             c.hacSubarrayBytes = p.size("sub", 1024);
             c.lineBytes = count32(p, "line", 32);
             applyCommon(c, p, false);
             p.finish("sub=, repl=, line=");
             // One subarray is one fully associative set of sub/line ways.
             requireGeometry("hac", size, c.lineBytes, 1);
             require(isPowerOfTwo(c.hacSubarrayBytes) &&
                         c.hacSubarrayBytes >= c.lineBytes,
                     "hac",
                     "sub=" + std::to_string(c.hacSubarrayBytes) +
                         " is not a power-of-two number of lines");
             requireGeometry("hac", size, c.lineBytes,
                             c.hacSubarrayBytes / c.lineBytes);
             return c;
         },
         // Named by its associativity, the lines of one subarray.
         .label = [](const CacheConfig &c) {
             return "hac" + std::to_string(c.hacSubarrayBytes / c.lineBytes);
         },
         .printParams = [](const CacheConfig &c) {
             std::string out;
             if (c.hacSubarrayBytes != 1024)
                 out += ",sub=" + sizeString(c.hacSubarrayBytes);
             return out + commonTail(c, false);
         },
         .build = [](const CacheConfig &c, const std::string &name,
                     Cycles lat, MemLevel *next) -> std::unique_ptr<BaseCache> {
             return std::make_unique<HacCache>(name, c.sizeBytes, c.lineBytes,
                                               c.hacSubarrayBytes, lat, next,
                                               c.repl);
         },
         .accessTime = [](const CacheConfig &c) {
             // Serial subarray decode + wide CAM search (Section 6.7).
             return dmAccessTime(c) +
                    camSearchDelay(kCamTagBits,
                                   c.hacSubarrayBytes / c.lineBytes);
         },
         .energy = [](const CacheConfig &c) {
             // CAM tag search replaces the tag read; approximate with the
             // conventional organisation plus a full-tag CAM search.
             const auto ways = static_cast<std::uint32_t>(
                 c.hacSubarrayBytes / c.lineBytes);
             CacheEnergyBreakdown e = CactiLite::conventional(orgOf(c, ways));
             e.camSearch = CactiLite::camSearchEnergy(kCamTagBits, ways);
             return l1Energy(e.total());
         }},
        {.name = "xor",
         .aliases = {"xordm"},
         .synopsis = "xor:<size>[,line=B]",
         .help = "XOR-mapped direct-mapped (tag-xor index hash)",
         .kind = CacheKind::XorDm,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::XorDm, size);
             c.lineBytes = count32(p, "line", 32);
             p.finish("line=");
             requireGeometry("xor", size, c.lineBytes, 1);
             return c;
         },
         .label = [](const CacheConfig &) { return std::string("xor-dm"); },
         .printParams = lineTail,
         .build = buildPlain<XorIndexCache, 1>,
         .accessTime = dmAccessTime,
         .energy = dmEnergy},
        {.name = "pad",
         .aliases = {"partial", "pmatch"},
         .synopsis = "pad:<size>[,<N>w][,bits=N][,repl=R][,line=B]",
         .help = "partial-address-matching way predictor over an SA array",
         .kind = CacheKind::PartialMatch,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::PartialMatch, size);
             c.ways = count32(p, "w", 2);
             c.partialBits = count32(p, "bits", 5);
             c.lineBytes = count32(p, "line", 32);
             applyCommon(c, p, false);
             p.finish("Nw, bits=, repl=, line=");
             requireGeometry("pad", size, c.lineBytes, c.ways);
             require(c.ways >= 2, "pad",
                     "way prediction needs at least 2 ways (2w)");
             require(c.partialBits >= 1 && c.partialBits <= 29, "pad",
                     "bits=" + std::to_string(c.partialBits) +
                         " is outside 1..29");
             return c;
         },
         .label = [](const CacheConfig &c) {
             return strprintf("pad%u-%uway", c.partialBits, c.ways);
         },
         .printParams = [](const CacheConfig &c) {
             return "," + std::to_string(c.ways) + "w,bits=" +
                    std::to_string(c.partialBits) + commonTail(c, false);
         },
         .build = [](const CacheConfig &c, const std::string &name,
                     Cycles lat, MemLevel *next) -> std::unique_ptr<BaseCache> {
             return std::make_unique<PartialMatchCache>(
                 name, geometryOf(c, c.ways), lat, next, c.partialBits,
                 c.repl);
         },
         // The PAD comparison replaces the full-tag way select, so the
         // first cycle runs near direct-mapped speed; mispredictions pay
         // a second cycle (the slow-hit fraction).
         .accessTime = dmAccessTime,
         .energy = setAssocEnergy,
         .side = [](const BaseCache &cache) -> SideCounters {
             const auto &pm = static_cast<const PartialMatchCache &>(cache);
             return {{"slowHits", pm.slowHits()},
                     {"padAliases", pm.padAliases()}};
         }},
        {.name = "halt",
         .synopsis = "halt:<size>[,<N>w][,bits=N][,repl=R][,line=B]",
         .help = "way-halting SA array (halt-tag filter; hits and misses "
                 "equal sa:, the saving shows only in its side counters)",
         .kind = CacheKind::WayHalting,
         .parse = [](std::uint64_t size, SpecParams &p) {
             CacheConfig c = configOf(CacheKind::WayHalting, size);
             c.ways = count32(p, "w", 4);
             c.partialBits = count32(p, "bits", 4);
             c.lineBytes = count32(p, "line", 32);
             applyCommon(c, p, false);
             p.finish("Nw, bits=, repl=, line=");
             requireGeometry("halt", size, c.lineBytes, c.ways);
             require(c.ways >= 2, "halt",
                     "way halting needs at least 2 ways (2w)");
             require(c.partialBits >= 1 && c.partialBits <= 29, "halt",
                     "bits=" + std::to_string(c.partialBits) +
                         " is outside 1..29");
             return c;
         },
         .label = [](const CacheConfig &c) {
             return strprintf("halt%u-%uway", c.partialBits, c.ways);
         },
         .printParams = [](const CacheConfig &c) {
             std::string out = "," + std::to_string(c.ways) + "w";
             if (c.partialBits != 4)
                 out += ",bits=" + std::to_string(c.partialBits);
             return out + commonTail(c, false);
         },
         .build = [](const CacheConfig &c, const std::string &name,
                     Cycles lat, MemLevel *next) -> std::unique_ptr<BaseCache> {
             return std::make_unique<WayHaltingCache>(
                 name, geometryOf(c, c.ways), lat, next, c.partialBits,
                 c.repl);
         },
         // Timing and energy are the plain SA array's: the model reports
         // the halting saving only through the side counters below.
         .accessTime = setAssocAccessTime,
         .energy = setAssocEnergy,
         .side = [](const BaseCache &cache) -> SideCounters {
             const auto &wh = static_cast<const WayHaltingCache &>(cache);
             return {{"haltedWays", wh.haltedWays()},
                     {"activatedWays", wh.activatedWays()}};
         }},
    };
    return entries;
}

const CacheSpecEntry *
findCacheSpecEntry(const std::string &name)
{
    const std::string n = toLower(name);
    for (const CacheSpecEntry &e : cacheSpecEntries())
        if (e.name == n ||
            std::find(e.aliases.begin(), e.aliases.end(), n) !=
                e.aliases.end())
            return &e;
    return nullptr;
}

const CacheSpecEntry &
cacheSpecEntryFor(CacheKind kind)
{
    const std::vector<CacheSpecEntry> &entries = cacheSpecEntries();
    return *std::find_if(entries.begin(), entries.end(),
                         [kind](const CacheSpecEntry &e) {
                             return e.kind == kind;
                         });
}

// ---------------------------------------------------------------------
// Parse / print

namespace {

/** Split "kind:rest" and the comma-separated parameter tail. */
CacheConfig
parseOneSpec(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0)
        throw CacheSpecError(
            "bad cache spec '" + spec +
            "': expected <kind>:<size>[,<params>] (try --list-caches)");
    const std::string kind = spec.substr(0, colon);
    const CacheSpecEntry *entry = findCacheSpecEntry(kind);
    if (!entry) {
        std::vector<std::string> names;
        for (const CacheSpecEntry &e : cacheSpecEntries())
            names.push_back(e.name);
        throw CacheSpecError("unknown cache kind '" + kind +
                             "' in '" + spec + "'; registered: " +
                             join(names, ", "));
    }
    std::vector<std::string> fields =
        split(spec.substr(colon + 1), ',');
    if (fields.empty())
        throw CacheSpecError(entry->name + ": missing size in '" +
                             spec + "'; synopsis: " + entry->synopsis);
    const std::uint64_t size = parseSize(fields.front(),
                                         entry->name + " size");
    fields.erase(fields.begin());
    SpecParams params(entry->name, std::move(fields));
    return entry->parse(size, params);
}

} // namespace

CacheConfig
parseCacheSpec(const std::string &spec)
{
    CacheConfig c;
    // `+victim:<N>` composition: a DM L1 with a victim buffer IS the
    // Victim kind, so the composed spelling funnels into it.
    const std::size_t plus = spec.find('+');
    if (plus == std::string::npos) {
        c = parseOneSpec(spec);
    } else {
        const std::string head = spec.substr(0, plus);
        const std::string tail = spec.substr(plus + 1);
        if (tail.rfind("victim:", 0) != 0)
            throw CacheSpecError(
                "bad composition '" + spec +
                "': only '+victim:<entries>' may follow a base spec");
        const CacheConfig base = parseOneSpec(head);
        if (base.kind != CacheKind::SetAssoc || base.ways != 1)
            throw CacheSpecError(
                "bad composition '" + spec +
                "': a victim buffer attaches to a direct-mapped base "
                "(dm:<size>)");
        // The Victim kind is always LRU and write-back: a base policy
        // it cannot honour is an error, as it is in a victim: spec.
        if (base.repl != ReplPolicyKind::LRU ||
            base.writePolicy != WritePolicy::WriteBackAllocate)
            throw CacheSpecError(
                "bad composition '" + spec +
                "': a victim-buffered cache is LRU write-back; drop "
                "repl= and wp= from the base spec");
        const std::uint64_t entries = specCount(
            tail.substr(7), "victim entries", kMaxVictimEntries, tail);
        requireEntries(entries);
        c = configOf(CacheKind::Victim, base.sizeBytes);
        c.lineBytes = base.lineBytes;
        c.victimEntries = entries;
    }
    c.label = cacheSpecEntryFor(c.kind).label(c);
    return c;
}

std::string
printCacheSpec(const CacheConfig &config)
{
    // SetAssoc has two entries; a 1-way config spells itself dm:.
    const CacheSpecEntry &entry =
        config.kind == CacheKind::SetAssoc && config.ways > 1
            ? *findCacheSpecEntry("sa")
            : cacheSpecEntryFor(config.kind);
    return entry.name + ":" + sizeString(config.sizeBytes) +
           entry.printParams(config);
}

std::string
listCacheSpecs()
{
    std::string out = "registered cache specs (bsim --cache <spec>):\n";
    for (const CacheSpecEntry &e : cacheSpecEntries()) {
        out += "  " + e.synopsis + "\n      " + e.help;
        if (!e.aliases.empty())
            out += " (aliases: " + join(e.aliases, ", ") + ")";
        out += "\n";
    }
    out += "compositions:\n"
           "  dm:<size>+victim:<N>      sugar for victim:<size>,<N>e\n";
    return out;
}

// ---------------------------------------------------------------------
// Dispatch through the registry

std::unique_ptr<BaseCache>
CacheConfig::build(const std::string &name, Cycles hit_latency,
                   MemLevel *next) const
{
    return cacheSpecEntryFor(kind).build(*this, name, hit_latency, next);
}

SideCounters
CacheConfig::sideCounters(const BaseCache &cache) const
{
    const CacheSpecEntry &entry = cacheSpecEntryFor(kind);
    return entry.side ? entry.side(cache) : SideCounters{};
}

std::optional<std::uint64_t>
findSideCounter(const SideCounters &counters, std::string_view name)
{
    for (const SideCounter &c : counters)
        if (c.name == name)
            return c.value;
    return std::nullopt;
}

BCacheParams
CacheConfig::bcacheParams() const
{
    bsim_assert(kind == CacheKind::BCache);
    BCacheParams p;
    p.sizeBytes = sizeBytes;
    p.lineBytes = lineBytes;
    p.mf = mf;
    p.bas = bas;
    p.repl = repl;
    p.writePolicy = writePolicy;
    return p;
}

} // namespace bsim
