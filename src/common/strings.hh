/**
 * @file
 * Small string helpers used by the reporting layer.
 */

#ifndef BSIM_COMMON_STRINGS_HH
#define BSIM_COMMON_STRINGS_HH

#include <cstdint>
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

} // namespace bsim

#endif // BSIM_COMMON_STRINGS_HH
