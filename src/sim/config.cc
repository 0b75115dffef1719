#include "sim/config.hh"

#include <limits>
#include <thread>

#include "common/logging.hh"
#include "common/strings.hh"

namespace bsim {

std::vector<CacheConfig>
figure4Configs(std::uint64_t size_bytes)
{
    const std::string size = sizeString(size_bytes);
    std::vector<CacheConfig> v;
    for (unsigned w : {2u, 4u, 8u, 32u})
        v.push_back(parseCacheSpec(strprintf("sa:%s,%uw", size.c_str(), w)));
    v.push_back(parseCacheSpec("victim:" + size + ",16e"));
    for (unsigned mf : {2u, 4u, 8u, 16u})
        v.push_back(parseCacheSpec(
            strprintf("bcache:%s,mf=%u,bas=8", size.c_str(), mf)));
    return v;
}

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        envCount("BSIM_JOBS", hw ? hw : 1, 1,
                 std::numeric_limits<unsigned>::max()));
}

unsigned
consumeJobsFlag(int &argc, char **argv)
{
    unsigned jobs = 0;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
        const std::string arg = argv[r];
        std::string value;
        if (arg == "--jobs") {
            if (r + 1 >= argc)
                bsim_fatal("--jobs requires a value");
            value = argv[++r];
        } else if (arg.rfind("--jobs=", 0) == 0) {
            value = arg.substr(7);
        } else if (arg.rfind("--", 0) == 0) {
            bsim_fatal("unknown flag '", arg, "'");
        } else {
            argv[w++] = argv[r];
            continue;
        }
        const std::optional<std::uint64_t> n = parseCount(value);
        if (!n || *n < 1 || *n > std::numeric_limits<unsigned>::max())
            bsim_fatal("bad --jobs value '", value, "'");
        jobs = static_cast<unsigned>(*n);
    }
    argc = w;
    argv[argc] = nullptr;
    return jobs;
}

std::vector<CacheConfig>
figure12Configs(std::uint64_t size_bytes)
{
    const std::string size = sizeString(size_bytes);
    std::vector<CacheConfig> v;
    for (unsigned w : {2u, 4u, 8u})
        v.push_back(parseCacheSpec(strprintf("sa:%s,%uw", size.c_str(), w)));
    v.push_back(parseCacheSpec("victim:" + size + ",16e"));
    for (unsigned bas : {4u, 8u})
        for (unsigned mf : {2u, 4u, 8u, 16u})
            v.push_back(parseCacheSpec(strprintf(
                "bcache:%s,mf=%u,bas=%u", size.c_str(), mf, bas)));
    return v;
}

} // namespace bsim
