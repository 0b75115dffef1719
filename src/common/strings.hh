/**
 * @file
 * Small string helpers used by the reporting layer.
 */

#ifndef BSIM_COMMON_STRINGS_HH
#define BSIM_COMMON_STRINGS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace bsim {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Append @p v in decimal: the `%llu` / `%lld` digits, without printf or
 * a temporary string. The number path of JsonWriter and the CSV exports.
 */
void appendUint(std::string &out, std::uint64_t v);
void appendInt(std::string &out, std::int64_t v);

/** "16kB", "256kB", "2MB" style size rendering. */
std::string sizeString(std::uint64_t bytes);

/** Split on a delimiter, dropping empty fields. */
std::vector<std::string> split(const std::string &s, char delim);

/** Lower-case copy. */
std::string toLower(std::string s);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * The one unsigned-count parser for flags, environment knobs and spec
 * parameters: decimal, hex (0x) or octal (leading 0) — or, with
 * @p base 10, decimal only. The first character must be a digit (no
 * sign, no blank) and the whole string must be consumed; a value above
 * 2^64-1 is rejected. nullopt on any of these.
 */
std::optional<std::uint64_t> parseCount(const std::string &s,
                                        int base = 0);

/**
 * The count in environment variable @p var: @p fallback when it is
 * unset or empty, and also, with a warning, when it is not a
 * parseCount() count in [@p lo, @p hi].
 */
std::uint64_t envCount(const char *var, std::uint64_t fallback,
                       std::uint64_t lo = 1,
                       std::uint64_t hi =
                           std::numeric_limits<std::uint64_t>::max());

} // namespace bsim

#endif // BSIM_COMMON_STRINGS_HH
