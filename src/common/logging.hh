/**
 * @file
 * Minimal gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic()  - a simulator bug; aborts.
 * fatal()  - a user/configuration error; exits with status 1.
 * warn()   - suspicious but non-fatal condition.
 * inform() - status message.
 */

#ifndef BSIM_COMMON_LOGGING_HH
#define BSIM_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace bsim {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * What bsim_fatal throws when fatal-throw mode is on (see
 * setFatalThrows). what() carries the message without the file:line
 * suffix, so a caller can report it verbatim.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Switch bsim_fatal from exit(1) to throwing FatalError, process-wide.
 * One-shot binaries keep the default (a configuration error ends the
 * run); a driver that must outlive one bad job (the perfbench
 * benchmark) enables this once and catches the thrown FatalError.
 * Process-wide rather than thread-local because job work fans out onto
 * sweep-pool worker threads, which already capture per-job exceptions.
 */
void setFatalThrows(bool enable);
bool fatalThrows();

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);
bool verbose();

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

} // namespace bsim

#define bsim_panic(...) \
    ::bsim::panicImpl(__FILE__, __LINE__, ::bsim::detail::concat(__VA_ARGS__))
#define bsim_fatal(...) \
    ::bsim::fatalImpl(__FILE__, __LINE__, ::bsim::detail::concat(__VA_ARGS__))
#define bsim_warn(...) \
    ::bsim::warnImpl(::bsim::detail::concat(__VA_ARGS__))
#define bsim_inform(...) \
    ::bsim::informImpl(::bsim::detail::concat(__VA_ARGS__))

/** panic() unless the invariant holds. */
#define bsim_assert(cond, ...)                                            \
    do {                                                                  \
        if (!(cond))                                                      \
            bsim_panic("assertion '" #cond "' failed. " __VA_ARGS__);    \
    } while (0)

#endif // BSIM_COMMON_LOGGING_HH
