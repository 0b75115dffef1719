/**
 * @file
 * Corrupt-trace generator for the trace_corruption ctest: writes
 * deterministic mutants of the given trace files — byte flips,
 * truncations and splices of one file into another — so
 * scripts/check_trace_corruption.sh can check that `bsim --trace`
 * answers every one with a result (exit 0) or a typed error (exit 1),
 * never a signal or a hang.
 *
 *   trace_mutants OUTDIR COUNT SEED FILE...
 *
 * Writes COUNT mutants per input as OUTDIR/m<input>_<k>.<ext>, keeping
 * the input's extension so the reader picks the same format, and prints
 * each path on stdout. Everything derives from SEED.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.hh"

using namespace bsim;

namespace {

using Bytes = std::vector<unsigned char>;

Bytes
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "trace_mutants: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    return Bytes(std::istreambuf_iterator<char>(in), {});
}

/** The mutation of one case: flips, a truncation, or a splice. */
Bytes
mutate(const Bytes &self, const Bytes &other, Rng &rng)
{
    Bytes out = self;
    switch (rng.nextBounded(3)) {
      case 0: {
        // 1..8 byte flips, biased towards the header, where a flip
        // changes the geometry the reader trusts.
        const std::size_t flips = 1 + rng.nextBounded(8);
        for (std::size_t i = 0; i < flips && !out.empty(); ++i) {
            const std::size_t span =
                rng.nextBool(0.5) ? std::min<std::size_t>(out.size(), 64)
                                  : out.size();
            out[rng.nextBounded(span)] ^=
                static_cast<unsigned char>(1 + rng.nextBounded(255));
        }
        break;
      }
      case 1:
        out.resize(rng.nextBounded(out.size() + 1));
        break;
      default: {
        // A prefix of this file followed by a suffix of either input.
        const Bytes &tail = rng.nextBool(0.5) ? self : other;
        out.resize(rng.nextBounded(self.size() + 1));
        const std::size_t from = rng.nextBounded(tail.size() + 1);
        out.insert(out.end(), tail.begin() + from, tail.end());
      }
    }
    return out;
}

std::string
extensionOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    return dot == std::string::npos ||
                   (slash != std::string::npos && dot < slash)
               ? std::string()
               : path.substr(dot);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 5) {
        std::fprintf(stderr,
                     "usage: trace_mutants OUTDIR COUNT SEED FILE...\n");
        return 2;
    }
    const std::string outdir = argv[1];
    const unsigned long count = std::strtoul(argv[2], nullptr, 0);
    Rng rng(std::strtoull(argv[3], nullptr, 0));

    std::vector<Bytes> inputs;
    for (int i = 4; i < argc; ++i)
        inputs.push_back(readFile(argv[i]));

    for (std::size_t f = 0; f < inputs.size(); ++f) {
        const Bytes &other = inputs[(f + 1) % inputs.size()];
        const std::string ext = extensionOf(argv[4 + f]);
        for (unsigned long k = 0; k < count; ++k) {
            const Bytes m = mutate(inputs[f], other, rng);
            const std::string path = outdir + "/m" + std::to_string(f) +
                                     "_" + std::to_string(k) + ext;
            std::ofstream out(path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(m.data()),
                      static_cast<std::streamsize>(m.size()));
            if (!out) {
                std::fprintf(stderr, "trace_mutants: cannot write %s\n",
                             path.c_str());
                return 2;
            }
            std::printf("%s\n", path.c_str());
        }
    }
    return 0;
}
