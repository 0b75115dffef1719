#include "bcache/balance.hh"

#include "common/strings.hh"

namespace bsim {

std::string
BalanceReport::toString() const
{
    return strprintf("fhs=%.1f%% ch=%.1f%% fms=%.1f%% cm=%.1f%% "
                     "las=%.1f%% tca=%.1f%%",
                     fhsPct, chPct, fmsPct, cmPct, lasPct, tcaPct);
}

BalanceReport
analyzeBalance(std::span<const SetUsage> u)
{
    BalanceReport r;
    const std::size_t n = u.size();
    if (n == 0)
        return r;

    std::uint64_t total_acc = 0, total_hit = 0, total_miss = 0;
    for (const auto &s : u) {
        total_acc += s.accesses();
        total_hit += s.hits;
        total_miss += s.misses;
    }
    const double avg_acc = double(total_acc) / double(n);
    const double avg_hit = double(total_hit) / double(n);
    const double avg_miss = double(total_miss) / double(n);

    std::uint64_t fhs = 0, ch = 0, fms = 0, cm = 0, las = 0, tca = 0;
    for (const auto &s : u) {
        if (total_hit && double(s.hits) > 2.0 * avg_hit) {
            ++fhs;
            ch += s.hits;
        }
        if (total_miss && double(s.misses) > 2.0 * avg_miss) {
            ++fms;
            cm += s.misses;
        }
        if (double(s.accesses()) < 0.5 * avg_acc) {
            ++las;
            tca += s.accesses();
        }
    }

    r.fhsPct = pct(double(fhs), double(n));
    r.chPct = pct(double(ch), double(total_hit));
    r.fmsPct = pct(double(fms), double(n));
    r.cmPct = pct(double(cm), double(total_miss));
    r.lasPct = pct(double(las), double(n));
    r.tcaPct = pct(double(tca), double(total_acc));
    return r;
}

} // namespace bsim
