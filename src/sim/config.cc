#include "sim/config.hh"

#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace bsim {

std::vector<CacheConfig>
figure4Configs(std::uint64_t size_bytes)
{
    std::vector<CacheConfig> v;
    for (std::uint32_t w : {2u, 4u, 8u, 32u})
        v.push_back(CacheConfig::setAssoc(size_bytes, w));
    v.push_back(CacheConfig::victim(size_bytes, 16));
    for (std::uint32_t mf : {2u, 4u, 8u, 16u})
        v.push_back(CacheConfig::bcache(size_bytes, mf, 8));
    return v;
}

unsigned
defaultJobs()
{
    if (const char *v = std::getenv("BSIM_JOBS"); v && *v) {
        char *end = nullptr;
        const unsigned long n = std::strtoul(v, &end, 10);
        if (end != v && *end == '\0' && n >= 1)
            return static_cast<unsigned>(n);
        bsim_warn("ignoring bad BSIM_JOBS='", v, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
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
        } else {
            argv[w++] = argv[r];
            continue;
        }
        char *end = nullptr;
        const unsigned long n = std::strtoul(value.c_str(), &end, 10);
        if (value.empty() || end == value.c_str() || *end != '\0' ||
            n < 1)
            bsim_fatal("bad --jobs value '", value, "'");
        jobs = static_cast<unsigned>(n);
    }
    argc = w;
    argv[argc] = nullptr;
    return jobs;
}

std::vector<CacheConfig>
figure12Configs(std::uint64_t size_bytes)
{
    std::vector<CacheConfig> v;
    for (std::uint32_t w : {2u, 4u, 8u})
        v.push_back(CacheConfig::setAssoc(size_bytes, w));
    v.push_back(CacheConfig::victim(size_bytes, 16));
    for (std::uint32_t bas : {4u, 8u})
        for (std::uint32_t mf : {2u, 4u, 8u, 16u})
            v.push_back(CacheConfig::bcache(size_bytes, mf, bas));
    return v;
}

} // namespace bsim
