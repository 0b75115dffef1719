/**
 * @file
 * Streaming, zero-copy trace ingestion: bounded readers that hand out
 * spans of MemAccess records in O(chunk) resident memory, replacing the
 * whole-file vectors of loadTrace for multi-gigabyte traces.
 *
 * Format dispatch (case-insensitive, see docs/TRACES.md):
 *  - `.bst`            BST1/BST2 binary, sniffed by magic. BST2 files are
 *                      mmap'd and served zero-copy: nextSpan() points
 *                      straight into the mapping, one validation pass per
 *                      chunk and no per-record conversion.
 *  - `.bst.gz`         the same binary formats behind a zlib-backed
 *                      InflateSource (one decompressed chunk resident).
 *  - anything else     Dinero text ("label hex-addr" lines); `.gz` also
 *                      accepted. Record count unknown until EOF.
 *
 * Readers are windowed: a TraceShard restricts one to a record range, so
 * parallel sweep jobs can each replay their own chunk range of a shared
 * file (sim/trace_replay.hh builds on this).
 */

#ifndef BSIM_WORKLOAD_TRACE_READER_HH
#define BSIM_WORKLOAD_TRACE_READER_HH

#include <memory>
#include <span>
#include <string>

#include "workload/access_stream.hh"
#include "workload/trace_format.hh"

namespace bsim {

/** size()/recordCount value of text readers before EOF is reached. */
inline constexpr std::uint64_t kUnknownRecordCount = ~std::uint64_t{0};

/** A contiguous record range of a trace file (default: all of it). */
struct TraceShard
{
    std::uint64_t firstRecord = 0;
    /** Records in the window; kUnknownRecordCount = through end of file. */
    std::uint64_t recordCount = kUnknownRecordCount;
};

/**
 * A bounded source of MemAccess spans over one trace window. Spans
 * reference memory owned by the reader (the mmap itself on the zero-copy
 * path) and stay valid until the next nextSpan()/reset() call. An empty
 * span means the window is exhausted. Malformed or truncated input is
 * fatal with the format and path named (configuration error).
 */
class TraceReader
{
  public:
    virtual ~TraceReader() = default;

    /**
     * Records in this reader's window, or kUnknownRecordCount for text
     * streams that have not yet seen EOF.
     */
    virtual std::uint64_t size() const = 0;

    /**
     * Hand out 1..max_n records without per-record copying where the
     * format allows; empty at end of window. Spans never cross a chunk
     * boundary, so callers loop.
     */
    virtual std::span<const MemAccess> nextSpan(std::size_t max_n) = 0;

    /** Rewind to the start of the window. */
    virtual void reset() = 0;

    /**
     * Position the reader so the next record handed out is window-relative
     * record @p record. The default rewinds if needed and decodes-and-
     * discards forward (the documented cost for compressed/text inputs);
     * the BST2 mmap reader overrides this with an O(1) seek through the
     * chunk index — sampled replay (sim/sampling.hh) leans on that to
     * jump between sampling units without touching skipped records.
     * Fatal when @p record lies beyond the end of the window.
     */
    virtual void skipTo(std::uint64_t record);

    /** Records handed out since construction or the last reset(). */
    virtual std::uint64_t position() const = 0;

    /** Format tag for messages, e.g. "BST2/mmap", "BST1", "dinero". */
    virtual std::string format() const = 0;

    virtual const std::string &path() const = 0;
};

using TraceReaderPtr = std::unique_ptr<TraceReader>;

/**
 * Open @p path for streaming, restricted to @p shard. Fatal on missing
 * files, unrecognized binary magic, malformed headers, or a shard window
 * outside the file.
 */
TraceReaderPtr openTraceReader(const std::string &path,
                               const TraceShard &shard = {});

/**
 * Open @p path as Dinero text regardless of its extension (`.gz` still
 * honoured) — the explicit-format escape hatch behind readTextTrace().
 */
TraceReaderPtr openTextTraceReader(const std::string &path,
                                   const TraceShard &shard = {});

/** Cheap metadata probe of a trace file's header. */
struct TraceInfo
{
    std::string format;         ///< "BST2", "BST1", or "dinero"
    /** kUnknownRecordCount for text traces (no header to consult). */
    std::uint64_t recordCount = kUnknownRecordCount;
    std::uint32_t chunkLen = 0; ///< BST2 only; 0 otherwise
    std::uint32_t addrBits = 0; ///< BST2 only; 0 otherwise
    bool compressed = false;    ///< behind an InflateSource
};

/** Probe @p path without reading records. Fatal on malformed headers. */
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
 * Formats without a mappable payload (BST1, gzip, text) still get a
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

/**
 * AccessStream adapter over a TraceReader, so traces drive everything a
 * synthetic generator can. Cycles back to the start of the window at end
 * by default (matching VectorStream replay semantics); a non-cycling
 * stream reports exhaustion by returning an empty span, and next() on an
 * exhausted stream is fatal.
 */
class TraceStream : public AccessStream
{
  public:
    explicit TraceStream(TraceReaderPtr reader, bool cycle = true);

    MemAccess next() override;
    void nextBatch(MemAccess *dst, std::size_t n) override;
    bool hasSpanBatches() const override { return true; }
    std::span<const MemAccess> nextSpan(std::size_t max_n) override;
    void reset() override;
    std::string name() const override;

    const TraceReader &reader() const { return *reader_; }

  private:
    /** Refill pending_ from the reader, honouring cycling. */
    bool refill(std::size_t max_n);

    TraceReaderPtr reader_;
    bool cycle_;
    /** Records pulled from the reader but not yet handed out. */
    std::span<const MemAccess> pending_;
};

} // namespace bsim

#endif // BSIM_WORKLOAD_TRACE_READER_HH
