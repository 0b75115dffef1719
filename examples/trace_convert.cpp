/**
 * @file
 * Trace conversion and inspection utility: converts between the binary
 * `.bst` format and Dinero text traces, optionally truncating or
 * summarizing — the interop path for feeding externally captured traces
 * (gem5/ChampSim/Pin exports converted to Dinero) into the simulator.
 *
 * Usage:
 *   trace_convert <in> <out>          convert by extension
 *   trace_convert <in> --summary      print a profile, write nothing
 *                                     (--head N profiles the first N)
 *   trace_convert <in> <out> --head N keep only the first N records
 *   trace_convert <in> <out> --chunk N BST2 chunk length (default 65536)
 *
 * `.bst` outputs are written in the chunked BST2 format (the zero-copy
 * mmap fast path — see docs/TRACES.md for the byte-level spec). Inputs
 * may be BST2 .bst, Dinero text, or gzip-compressed variants. A bad
 * option or number prints the usage text and exits 2.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/strings.hh"
#include "workload/reuse.hh"
#include "workload/trace.hh"

using namespace bsim;

namespace {

[[noreturn]] void
usage(const std::string &msg = {})
{
    if (!msg.empty())
        std::fprintf(stderr, "error: %s\n", msg.c_str());
    std::fprintf(stderr,
                 "usage: trace_convert <in> <out> [--head N] "
                 "[--chunk N]\n"
                 "       trace_convert <in> --summary [--head N]\n"
                 "formats by extension: .bst = binary (chunked BST2),\n"
                 "else dinero text; --chunk N in 1..%u\n",
                 std::numeric_limits<std::uint32_t>::max());
    std::exit(2);
}

/** The count after @p flag, in [@p lo, @p hi]; anything else is usage. */
std::uint64_t
countArg(const char *flag, const char *s, std::uint64_t lo,
         std::uint64_t hi)
{
    const std::optional<std::uint64_t> n = parseCount(s);
    if (!n || *n < lo || *n > hi)
        usage(std::string("bad number for ") + flag + ": '" + s + "'");
    return *n;
}

void
summarize(const std::vector<MemAccess> &t)
{
    std::uint64_t reads = 0, writes = 0, fetches = 0;
    Addr lo = ~Addr{0}, hi = 0;
    ReuseDistanceProfiler prof(32);
    for (const auto &a : t) {
        switch (a.type) {
          case AccessType::Read:
            ++reads;
            break;
          case AccessType::Write:
            ++writes;
            break;
          case AccessType::Fetch:
            ++fetches;
            break;
        }
        lo = std::min(lo, a.addr);
        hi = std::max(hi, a.addr);
        prof.observe(a.addr);
    }
    std::printf("records      : %zu\n", t.size());
    std::printf("mix          : %llu reads, %llu writes, %llu fetches\n",
                (unsigned long long)reads, (unsigned long long)writes,
                (unsigned long long)fetches);
    std::printf("address range: 0x%llx .. 0x%llx\n",
                (unsigned long long)lo, (unsigned long long)hi);
    std::printf("footprint    : %s (32B lines)\n",
                sizeString(prof.distinctBlocks() * 32).c_str());
    std::printf("locality     : %.1f%% of reuse within 512 lines "
                "(one 16kB L1), p90 capacity %s\n",
                100.0 * prof.hitFractionWithin(512),
                sizeString(prof.capacityForHitFraction(0.90) * 32)
                    .c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    std::uint64_t head = std::numeric_limits<std::uint64_t>::max();
    std::uint32_t chunk_len = kBst2DefaultChunkLen;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--head") && i + 1 < argc) {
            head = countArg("--head", argv[++i], 0,
                            std::numeric_limits<std::uint64_t>::max());
        } else if (!std::strcmp(argv[i], "--chunk") && i + 1 < argc) {
            chunk_len = static_cast<std::uint32_t>(
                countArg("--chunk", argv[++i], 1,
                         std::numeric_limits<std::uint32_t>::max()));
        } else {
            usage(std::string("unknown option ") + argv[i]);
        }
    }

    std::vector<MemAccess> trace = loadTrace(argv[1]);
    if (trace.size() > head)
        trace.resize(head);
    if (!std::strcmp(argv[2], "--summary")) {
        summarize(trace);
        return 0;
    }

    const std::string out = argv[2];
    if (out.size() >= 4 && out.compare(out.size() - 4, 4, ".bst") == 0)
        writeBst2Trace(out, trace, chunk_len);
    else
        writeTextTrace(out, trace);
    std::printf("wrote %zu records to %s\n", trace.size(), out.c_str());
    return 0;
}
