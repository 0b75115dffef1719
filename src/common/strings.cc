#include "common/strings.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace bsim {

std::string
strprintf(const char *fmt, ...)
{
    // One pass into a stack buffer; only an overflow formats again.
    char buf[256];
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    std::string out;
    if (n > 0 && static_cast<std::size_t>(n) < sizeof buf) {
        out.assign(buf, static_cast<std::size_t>(n));
    } else if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    }
    va_end(args2);
    return out;
}

void
appendUint(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
appendInt(std::string &out, std::int64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string
sizeString(std::uint64_t bytes)
{
    if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0)
        return strprintf("%lluMB",
                         static_cast<unsigned long long>(bytes >> 20));
    if (bytes >= (1ull << 10) && bytes % (1ull << 10) == 0)
        return strprintf("%llukB",
                         static_cast<unsigned long long>(bytes >> 10));
    return strprintf("%lluB", static_cast<unsigned long long>(bytes));
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::optional<std::uint64_t>
parseCount(const std::string &s, int base)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, base);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return std::nullopt;
    return v;
}

std::uint64_t
envCount(const char *var, std::uint64_t fallback, std::uint64_t lo,
         std::uint64_t hi)
{
    const char *v = std::getenv(var);
    if (!v || !*v)
        return fallback;
    const std::optional<std::uint64_t> n = parseCount(v);
    if (!n || *n < lo || *n > hi) {
        bsim_warn("ignoring bad ", var, "='", v, "'");
        return fallback;
    }
    return *n;
}

} // namespace bsim
