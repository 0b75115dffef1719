#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <exception>

namespace bsim {

namespace {

bool verboseFlag = true;

/**
 * The one place an input error becomes an exit status: a FatalError
 * nobody catches prints its message and exits 1. Anything else goes on
 * to the previous handler, which aborts.
 */
const std::terminate_handler previousTerminate = std::set_terminate([] {
    try {
        if (const std::exception_ptr e = std::current_exception())
            std::rethrow_exception(e);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(1);
    } catch (...) {
    }
    previousTerminate ? previousTerminate() : std::abort();
});

} // namespace

void
setVerbose(bool verbose)
{
    verboseFlag = verbose;
}

bool
verbose()
{
    return verboseFlag;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
setFatalThrows(bool)
{
}

void
fatalImpl(const std::string &msg)
{
    throw FatalError(msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (verboseFlag)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace bsim
