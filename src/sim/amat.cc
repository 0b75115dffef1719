#include "sim/amat.hh"

#include <algorithm>

#include "common/strings.hh"

namespace bsim {

std::string
AmatResult::toString() const
{
    return strprintf("access=%.3fns clock=%.3fns miss=%.3f%% "
                     "amat=%.3fns",
                     accessTimeNs, clockNs, 100.0 * missRate, amatNs);
}

AmatResult
evaluateAmat(const CacheConfig &config, double miss_rate,
             double slow_hit_fraction, const AmatParams &params)
{
    AmatResult r;
    r.accessTimeNs =
        CacheFactory::instance().entryFor(config.kind)->accessTime(config);
    r.clockNs = std::max(params.coreFloorNs, r.accessTimeNs);
    r.missRate = miss_rate;
    r.slowHitFraction = slow_hit_fraction;
    r.missPenaltyCycles = params.missPenaltyCycles;
    const double cycles =
        1.0 + (1.0 - miss_rate) * slow_hit_fraction +
        miss_rate * double(params.missPenaltyCycles);
    r.amatNs = r.clockNs * cycles;
    return r;
}

} // namespace bsim
