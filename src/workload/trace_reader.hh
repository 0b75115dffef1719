/**
 * @file
 * Streaming, zero-copy trace ingestion: bounded readers that hand out
 * spans of MemAccess records in O(chunk) resident memory, replacing the
 * whole-file vectors of loadTrace for multi-gigabyte traces.
 *
 * Format dispatch (case-insensitive, see docs/TRACES.md), decided once
 * by probeTrace():
 *  - `.bst`            BST2 binary; any other magic is fatal. Files are
 *                      mmap'd and served zero-copy: nextSpan() points
 *                      straight into the mapping, one validation pass per
 *                      chunk and no per-record conversion.
 *  - `.bst.gz`         BST2 behind a zlib-backed InflateSource (one
 *                      decompressed chunk resident).
 *  - anything else     Dinero text ("label hex-addr" lines); `.gz` also
 *                      accepted. Record count unknown until EOF.
 *
 * Readers are windowed: a TraceShard restricts one to a record range, so
 * parallel sweep jobs can each replay their own chunk range of a shared
 * file (sim/trace_replay.hh builds on this).
 */

#ifndef BSIM_WORKLOAD_TRACE_READER_HH
#define BSIM_WORKLOAD_TRACE_READER_HH

#include <compare>
#include <memory>
#include <span>
#include <string>

#include "mem/access.hh"
#include "workload/trace_format.hh"

namespace bsim {

/** A record count no header gives: a text trace's, or "through EOF". */
inline constexpr std::uint64_t kUnknownRecordCount = ~std::uint64_t{0};

/** A contiguous record range of a trace file (default: all of it). */
struct TraceShard
{
    std::uint64_t firstRecord = 0;
    /** Records in the window; kUnknownRecordCount = through end of file. */
    std::uint64_t recordCount = kUnknownRecordCount;

    auto operator<=>(const TraceShard &) const = default;
};

/**
 * A single-pass source of MemAccess spans over one trace window. Spans
 * reference memory owned by the reader (the mmap itself on the zero-copy
 * path) and stay valid until the next nextSpan() call. An empty span
 * means the window is exhausted. Malformed or truncated input is fatal
 * with the format and path named (configuration error).
 */
class TraceReader
{
  public:
    virtual ~TraceReader() = default;

    /**
     * Hand out 1..max_n records without per-record copying where the
     * format allows; empty at end of window. Spans never cross a chunk
     * boundary, so callers loop.
     */
    virtual std::span<const MemAccess> nextSpan(std::size_t max_n) = 0;
};

using TraceReaderPtr = std::unique_ptr<TraceReader>;

/**
 * Open @p path for streaming, restricted to @p shard; the reader is
 * chosen from probeTrace(@p path). Fatal on missing files, a `.bst`
 * file that is not BST2, malformed headers, or a shard window outside
 * the file.
 */
TraceReaderPtr openTraceReader(const std::string &path,
                               const TraceShard &shard = {});

/** Cheap metadata probe of a trace file's header. */
struct TraceInfo
{
    std::string format;         ///< "BST2" or "dinero"
    /** kUnknownRecordCount for text traces (no header to consult). */
    std::uint64_t recordCount = kUnknownRecordCount;
    std::uint32_t chunkLen = 0; ///< BST2 only; 0 otherwise
    std::uint32_t addrBits = 0; ///< BST2 only; 0 otherwise
    bool compressed = false;    ///< behind an InflateSource
};

/**
 * Probe @p path without reading records: the one place the format is
 * decided (extension, then the BST2 magic and header). Fatal on a
 * missing or unreadable file (text traces included), on a `.bst` file
 * whose magic is not BST2, and on malformed headers.
 */
TraceInfo probeTrace(const std::string &path);

/**
 * A shared, immutable handle to an open trace: the probed TraceInfo
 * plus — for uncompressed BST2 files — the mmap of the whole file, held
 * once and shared by every reader opened from the handle. A driver that
 * replays one trace many times opens it once and hands each run
 * zero-copy TraceShard windows over the same mapping, instead of
 * re-opening and re-mapping the file per run.
 *
 * Readers over a shared mapping never MADV_DONTNEED consumed chunks
 * (another run may be replaying them); the single-shot
 * openTraceReader(path) path keeps its O(chunk) resident-set behaviour.
 * Inputs without a mappable payload (gzip, text) still get a
 * handle — openTraceReader(handle) falls back to a per-reader open of
 * the same path, so callers need no format-specific cases.
 */
class TraceHandle
{
  public:
    TraceHandle(std::string path, TraceInfo info,
                std::shared_ptr<void> mapping)
        : path_(std::move(path)), info_(info),
          mapping_(std::move(mapping))
    {
    }
    TraceHandle(const TraceHandle &) = delete;
    TraceHandle &operator=(const TraceHandle &) = delete;

    const std::string &path() const { return path_; }
    const TraceInfo &info() const { return info_; }
    /** True when readers share this handle's mmap (uncompressed BST2). */
    bool shared() const { return mapping_ != nullptr; }

    /** The type-erased shared MappedFile (trace_reader.cc internal). */
    const std::shared_ptr<void> &mapping() const { return mapping_; }

  private:
    std::string path_;
    TraceInfo info_;
    std::shared_ptr<void> mapping_;
};

using TraceHandlePtr = std::shared_ptr<const TraceHandle>;

/**
 * Open @p path once for shared use. Fatal on missing files or malformed
 * headers (same contract as openTraceReader).
 */
TraceHandlePtr openTraceHandle(const std::string &path);

/**
 * Open a windowed reader over @p handle. Zero-copy formats reuse the
 * handle's mapping (no open/mmap syscalls, pages stay resident across
 * readers); everything else opens the underlying path as usual.
 */
TraceReaderPtr openTraceReader(const TraceHandlePtr &handle,
                               const TraceShard &shard = {});

/** True when gzip-compressed traces can be read (built with zlib). */
bool zlibAvailable();

/**
 * Gzip @p src into @p dst (test fixtures and the docs/TRACES.md
 * conversion cookbook). Fatal when built without zlib.
 */
void gzipFile(const std::string &src, const std::string &dst);

} // namespace bsim

#endif // BSIM_WORKLOAD_TRACE_READER_HH
