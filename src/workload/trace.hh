/**
 * @file
 * Whole-trace helpers: load a trace into memory, write one out, and
 * record a live stream for exact replay — so externally produced address
 * traces (e.g. converted SimpleScalar/ChampSim traces) can drive every
 * cache model, and synthetic workloads can be captured.
 *
 * These hold whole traces in vectors; large traces should go through
 * the streaming layer instead (workload/trace_reader.hh), which
 * loadTrace() is built on. Formats (see docs/TRACES.md for the
 * normative spec):
 *  - binary ".bst": BST2 (chunked, seekable), written by writeBst2Trace
 *    and Bst2Writer in workload/trace_format.hh.
 *  - text (Dinero-style "din"): one record per line, "<label> <hex-addr>"
 *    with label 0 = read, 1 = write, 2 = instruction fetch, written by
 *    writeTextTrace.
 */

#ifndef BSIM_WORKLOAD_TRACE_HH
#define BSIM_WORKLOAD_TRACE_HH

#include <string>
#include <vector>

#include "workload/access_stream.hh"
#include "workload/trace_format.hh"

namespace bsim {

/** Write accesses in Dinero din text format. Fatal on I/O failure. */
void writeTextTrace(const std::string &path,
                    const std::vector<MemAccess> &accesses);

/**
 * Load a whole trace into memory, dispatching by case-insensitive
 * extension: `.bst` (and `.bst.gz`) = BST2, anything else = Dinero text
 * (`.gz` also accepted; blank lines and '#' comments skipped). Fatal
 * with the format and the offending path on any malformed or truncated
 * input, including a header that declares more records than the file
 * holds.
 */
std::vector<MemAccess> loadTrace(const std::string &path);

/**
 * Wrap a stream, recording everything produced (for capture-then-replay
 * tests and the trace_analysis example). The recording grows without
 * bound — fine for test-sized captures, not for long runs.
 */
class RecordingStream : public AccessStream
{
  public:
    explicit RecordingStream(AccessStreamPtr child);

    MemAccess next() override;

    const std::vector<MemAccess> &recorded() const { return recorded_; }
    void clearRecorded() { recorded_.clear(); }

  private:
    AccessStreamPtr child_;
    std::vector<MemAccess> recorded_;
};

} // namespace bsim

#endif // BSIM_WORKLOAD_TRACE_HH
