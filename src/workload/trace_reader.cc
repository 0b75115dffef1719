#include "workload/trace_reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"

#if BSIM_HAVE_ZLIB
#include <zlib.h>
#endif

namespace bsim {

namespace {

// ---------------------------------------------------------------------
// Byte sources: sequential reads over a plain or gzip-compressed file.
// ---------------------------------------------------------------------

class ByteSource
{
  public:
    virtual ~ByteSource() = default;
    /** Read up to @p n bytes; short counts only at EOF. Fatal on error. */
    virtual std::size_t read(void *dst, std::size_t n) = 0;
};

class FileByteSource : public ByteSource
{
  public:
    explicit FileByteSource(const std::string &path) : path_(path)
    {
        file_ = std::fopen(path.c_str(), "rb");
        if (!file_)
            bsim_fatal("cannot open trace '", path, "'");
    }
    ~FileByteSource() override
    {
        if (file_)
            std::fclose(file_);
    }

    std::size_t
    read(void *dst, std::size_t n) override
    {
        const std::size_t got = std::fread(dst, 1, n, file_);
        if (got < n && std::ferror(file_))
            bsim_fatal("read error on trace '", path_, "'");
        return got;
    }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
};

#if BSIM_HAVE_ZLIB
/**
 * The zlib-backed source behind `.gz` traces: streaming inflate via the
 * gzFile API, so only one decompressed chunk is ever resident.
 */
class InflateSource : public ByteSource
{
  public:
    explicit InflateSource(const std::string &path) : path_(path)
    {
        gz_ = gzopen(path.c_str(), "rb");
        if (!gz_)
            bsim_fatal("cannot open gzip trace '", path, "'");
        gzbuffer(gz_, 256 * 1024);
    }
    ~InflateSource() override
    {
        if (gz_)
            gzclose(gz_);
    }

    std::size_t
    read(void *dst, std::size_t n) override
    {
        std::size_t total = 0;
        while (total < n) {
            const unsigned want = static_cast<unsigned>(
                std::min<std::size_t>(n - total, 1u << 30));
            const int got =
                gzread(gz_, static_cast<char *>(dst) + total, want);
            if (got < 0) {
                int errnum = 0;
                const char *msg = gzerror(gz_, &errnum);
                bsim_fatal("gzip error on trace '", path_, "': ",
                           msg ? msg : "unknown");
            }
            if (got == 0)
                break; // EOF
            total += static_cast<std::size_t>(got);
        }
        return total;
    }

  private:
    std::string path_;
    gzFile gz_ = nullptr;
};
#endif // BSIM_HAVE_ZLIB

bool
hasSuffix(const std::string &lower, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return lower.size() >= n &&
           lower.compare(lower.size() - n, n, suffix) == 0;
}

bool
isGzPath(const std::string &path)
{
    return hasSuffix(toLower(path), ".gz");
}

/** The extension that decides the format, with any ".gz" stripped. */
std::string
formatExtension(const std::string &path)
{
    std::string lower = toLower(path);
    if (hasSuffix(lower, ".gz"))
        lower.resize(lower.size() - 3);
    const std::size_t dot = lower.rfind('.');
    return dot == std::string::npos ? std::string() : lower.substr(dot);
}

std::unique_ptr<ByteSource>
openByteSource(const std::string &path)
{
    if (isGzPath(path)) {
#if BSIM_HAVE_ZLIB
        return std::make_unique<InflateSource>(path);
#else
        bsim_fatal("'", path, "' is gzip-compressed but this build has "
                   "no zlib; reconfigure with zlib installed or "
                   "decompress the trace first");
#endif
    }
    return std::make_unique<FileByteSource>(path);
}

/**
 * Check the first @p got bytes of @p path as a BST2 header: fatal, with
 * the path named, on bad magic, a short header or a malformed field.
 */
Bst2Header
parseBst2Header(const std::string &path, const unsigned char *bytes,
               std::size_t got)
{
    if (got < 4 || std::memcmp(bytes, kBst2Magic, 4) != 0)
        bsim_fatal("'", path, "' is not a BST2 binary trace (bad magic)");
    if (got < kBst2HeaderBytes)
        bsim_fatal("truncated BST2 trace '", path, "': missing header");
    Bst2Header header;
    std::string err;
    if (!decodeBst2Header(bytes, &header, &err))
        bsim_fatal("malformed BST2 trace '", path, "': ", err);
    return header;
}

// ---------------------------------------------------------------------
// Zero-copy mmap reader for uncompressed BST2 files.
// ---------------------------------------------------------------------

/** RAII read-only mapping of a whole file. */
class MappedFile
{
  public:
    explicit MappedFile(const std::string &path)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            bsim_fatal("cannot open trace '", path, "'");
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            bsim_fatal("cannot stat trace '", path, "'");
        }
        size_ = static_cast<std::size_t>(st.st_size);
        if (size_ > 0) {
            void *p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
            if (p == MAP_FAILED) {
                ::close(fd);
                bsim_fatal("cannot mmap trace '", path, "'");
            }
            data_ = static_cast<const unsigned char *>(p);
            ::madvise(const_cast<unsigned char *>(data_), size_,
                      MADV_SEQUENTIAL);
        }
        ::close(fd);
    }
    ~MappedFile()
    {
        if (data_)
            ::munmap(const_cast<unsigned char *>(data_), size_);
    }
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const unsigned char *data() const { return data_; }
    std::size_t size() const { return size_; }

    /**
     * Tell the kernel the byte range [begin, end) will not be touched
     * again, so its pages can be reclaimed. Keeps a sequential replay's
     * resident set at O(chunk) instead of O(file). Re-touching dropped
     * pages is still safe (clean read-only file pages re-fault from
     * disk), so this is purely advisory and failure is ignored.
     */
    void
    dropRange(std::size_t begin, std::size_t end) const
    {
        static const std::size_t page =
            static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        begin = (begin + page - 1) & ~(page - 1); // round up
        end &= ~(page - 1);                       // round down
        if (data_ && begin < end)
            ::madvise(const_cast<unsigned char *>(data_) + begin,
                      end - begin, MADV_DONTNEED);
    }

  private:
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
};

/** Clamp @p shard to a window of @p total records; fatal if outside. */
std::pair<std::uint64_t, std::uint64_t>
shardWindow(const TraceShard &shard, std::uint64_t total,
            const std::string &path)
{
    if (shard.firstRecord > total)
        bsim_fatal("shard start ", shard.firstRecord, " beyond the ",
                   total, " records of trace '", path, "'");
    const std::uint64_t avail = total - shard.firstRecord;
    const std::uint64_t count =
        shard.recordCount == kUnknownRecordCount
            ? avail
            : std::min(shard.recordCount, avail);
    return {shard.firstRecord, shard.firstRecord + count};
}

/** Validate a mapped BST2 file's header; fatal with @p path named. */
Bst2Header
checkBst2Mapping(const std::string &path, const MappedFile &map)
{
    const Bst2Header header = parseBst2Header(path, map.data(), map.size());
    if (map.size() != header.fileBytes())
        bsim_fatal("truncated BST2 trace '", path,
                   "': header declares ", header.recordCount,
                   " records (", header.fileBytes(),
                   " bytes) but the file has ", map.size(), " bytes");
    return header;
}

class Bst2MmapReader : public TraceReader
{
  public:
    Bst2MmapReader(const std::string &path, const TraceShard &shard)
        : Bst2MmapReader(path, shard,
                         std::make_shared<MappedFile>(path),
                         /*shared_mapping=*/false)
    {
    }

    /**
     * Reader over a mapping owned by a TraceHandle. Consumed chunks are
     * NOT MADV_DONTNEED'd: the pages belong to every reader sharing the
     * handle, and dropping them would evict another request's window.
     */
    Bst2MmapReader(const std::string &path, const TraceShard &shard,
                   std::shared_ptr<MappedFile> map, bool shared_mapping)
        : path_(path), map_(std::move(map)),
          sharedMapping_(shared_mapping)
    {
        header_ = checkBst2Mapping(path, *map_);
        std::tie(pos_, end_) =
            shardWindow(shard, header_.recordCount, path);
    }

    std::span<const MemAccess>
    nextSpan(std::size_t max_n) override
    {
        if (pos_ >= end_ || max_n == 0)
            return {};
        const std::uint64_t chunk = pos_ / header_.chunkLen;
        if (chunk != validatedChunk_)
            validateChunk(chunk);
        const std::uint64_t chunk_first = chunk * header_.chunkLen;
        const std::uint64_t chunk_end = std::min<std::uint64_t>(
            chunk_first + header_.chunkLen, header_.recordCount);
        const std::uint64_t n = std::min<std::uint64_t>(
            {chunk_end - pos_, end_ - pos_, max_n});
        const unsigned char *payload = map_->data() +
                                       header_.chunkOffset(chunk) +
                                       kBst2ChunkHeaderBytes;
        std::span<const MemAccess> out;
        if constexpr (kBst2RecordMatchesMemAccess) {
            // The zero-copy path: the validated 16-byte LE records *are*
            // MemAccess objects; hand a view into the mapping itself.
            out = {reinterpret_cast<const MemAccess *>(payload) +
                       (pos_ - chunk_first),
                   static_cast<std::size_t>(n)};
        } else {
            convert_.resize(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i)
                convert_[static_cast<std::size_t>(i)] = decodeBst2Record(
                    payload + (pos_ - chunk_first + i) * kBst2RecordBytes);
            out = {convert_.data(), convert_.size()};
        }
        pos_ += n;
        return out;
    }

  private:
    void
    validateChunk(std::uint64_t chunk)
    {
        const std::uint64_t first = chunk * header_.chunkLen;
        const std::uint32_t records = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(header_.chunkLen,
                                    header_.recordCount - first));
        const unsigned char *hdr =
            map_->data() + header_.chunkOffset(chunk);
        std::string err;
        if (!decodeBst2ChunkHeader(hdr, records, first, &err))
            bsim_fatal("malformed BST2 trace '", path_, "' at chunk ",
                       chunk, ": ", err);
        const std::uint64_t bad = validateBst2Payload(
            hdr + kBst2ChunkHeaderBytes, records);
        if (bad != records)
            bsim_fatal("malformed BST2 trace '", path_, "': record ",
                       first + bad, " has a bad type/reserved field");
        if (validatedChunk_ != kUnknownRecordCount && !sharedMapping_)
            map_->dropRange(
                header_.chunkOffset(validatedChunk_),
                std::min<std::uint64_t>(
                    header_.chunkOffset(validatedChunk_ + 1),
                    header_.fileBytes()));
        validatedChunk_ = chunk;
    }

    std::string path_;
    std::shared_ptr<MappedFile> map_;
    bool sharedMapping_ = false;
    Bst2Header header_;
    std::uint64_t pos_ = 0, end_ = 0;
    std::uint64_t validatedChunk_ = kUnknownRecordCount;
    /** Big-endian fallback only; unused on the zero-copy path. */
    std::vector<MemAccess> convert_;
};

// ---------------------------------------------------------------------
// Buffered readers: one decoded chunk resident, any byte source.
// ---------------------------------------------------------------------

/**
 * Common machinery for the converting formats (BST2 over gzip, Dinero
 * text): subclasses decode up to a buffer's worth of records per
 * refill; windowing (shard skip + cap) is handled here.
 */
class BufferedReader : public TraceReader
{
  public:
    BufferedReader(const std::string &path, const TraceShard &shard,
                   std::size_t buf_records)
        : path_(path), shard_(shard)
    {
        buf_.resize(buf_records);
    }

    std::span<const MemAccess>
    nextSpan(std::size_t max_n) override
    {
        if (!skipped_)
            skipToWindow();
        if (handed_ >= windowCount_ || max_n == 0)
            return {};
        if (bufPos_ == bufLen_) {
            bufPos_ = 0;
            bufLen_ = refill(buf_.data(), buf_.size());
            if (bufLen_ == 0) {
                windowCount_ = handed_;
                return {};
            }
        }
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(
                {bufLen_ - bufPos_, windowCount_ - handed_, max_n}));
        std::span<const MemAccess> out(buf_.data() + bufPos_, n);
        bufPos_ += n;
        handed_ += n;
        return out;
    }

  protected:
    /** Decode up to @p max records into @p dst; 0 at end of input. */
    virtual std::size_t refill(MemAccess *dst, std::size_t max) = 0;
    /** Total records the input holds, or kUnknownRecordCount. */
    virtual std::uint64_t inputCount() const = 0;

    const std::string path_;

  private:
    void
    skipToWindow()
    {
        skipped_ = true;
        // Sequential inputs reach the window start by decode-and-discard
        // (documented cost for compressed/text shards; the mmap reader
        // seeks instead).
        std::uint64_t left = shard_.firstRecord;
        while (left > 0) {
            const std::size_t got = refill(
                buf_.data(),
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    left, buf_.size())));
            if (got == 0) {
                if (inputCount() != kUnknownRecordCount)
                    bsim_fatal("shard start ", shard_.firstRecord,
                               " beyond the ", inputCount(),
                               " records of trace '", path_, "'");
                bsim_fatal("shard start ", shard_.firstRecord,
                           " beyond the end of trace '", path_, "'");
            }
            left -= got;
        }
        if (inputCount() != kUnknownRecordCount) {
            const auto [b, e] = shardWindow(shard_, inputCount(), path_);
            windowCount_ = e - b;
        } else {
            windowCount_ = shard_.recordCount;
        }
    }

    TraceShard shard_;
    std::vector<MemAccess> buf_;
    std::size_t bufPos_ = 0, bufLen_ = 0;
    std::uint64_t handed_ = 0;
    std::uint64_t windowCount_ = kUnknownRecordCount;
    bool skipped_ = false;
};

/** Records a buffered decode loop works through per refill. */
constexpr std::size_t kBufferRecords = 65536;

/** BST2 over a sequential source (the `.bst.gz` path). */
class Bst2SourceReader : public BufferedReader
{
  public:
    Bst2SourceReader(const std::string &path, const TraceShard &shard,
                     std::unique_ptr<ByteSource> src)
        : BufferedReader(path, shard, kBufferRecords),
          src_(std::move(src))
    {
        unsigned char hdr[kBst2HeaderBytes];
        header_ = parseBst2Header(path_, hdr, src_->read(hdr, sizeof hdr));
    }

  protected:
    std::size_t
    refill(MemAccess *dst, std::size_t max) override
    {
        std::size_t out = 0;
        while (out < max && decoded_ < header_.recordCount) {
            if (chunkLeft_ == 0)
                openChunk();
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(chunkLeft_, max - out));
            raw_.resize(want * kBst2RecordBytes);
            if (src_->read(raw_.data(), raw_.size()) != raw_.size())
                bsim_fatal("truncated BST2 trace '", path_,
                           "': header declares ", header_.recordCount,
                           " records but the data ends at record ",
                           decoded_);
            const std::uint64_t bad =
                validateBst2Payload(raw_.data(), want);
            if (bad != want)
                bsim_fatal("malformed BST2 trace '", path_, "': record ",
                           decoded_ + bad,
                           " has a bad type/reserved field");
            for (std::size_t i = 0; i < want; ++i)
                dst[out + i] =
                    decodeBst2Record(raw_.data() + i * kBst2RecordBytes);
            decoded_ += want;
            chunkLeft_ -= want;
            out += want;
        }
        return out;
    }

    std::uint64_t inputCount() const override
    {
        return header_.recordCount;
    }

  private:
    void
    openChunk()
    {
        unsigned char hdr[kBst2ChunkHeaderBytes];
        if (src_->read(hdr, sizeof hdr) != sizeof hdr)
            bsim_fatal("truncated BST2 trace '", path_,
                       "': header declares ", header_.recordCount,
                       " records but the data ends at record ", decoded_);
        const std::uint32_t expect = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(header_.chunkLen,
                                    header_.recordCount - decoded_));
        std::string err;
        if (!decodeBst2ChunkHeader(hdr, expect, decoded_, &err))
            bsim_fatal("malformed BST2 trace '", path_, "' at record ",
                       decoded_, ": ", err);
        chunkLeft_ = expect;
    }

    std::unique_ptr<ByteSource> src_;
    Bst2Header header_;
    std::uint64_t decoded_ = 0;
    std::uint64_t chunkLeft_ = 0;
    std::vector<unsigned char> raw_;
};

/** Dinero text ("label hex-addr" per line), plain or gzipped. */
class DineroReader : public BufferedReader
{
  public:
    DineroReader(const std::string &path, const TraceShard &shard,
                 std::unique_ptr<ByteSource> src)
        : BufferedReader(path, shard, kBufferRecords), src_(std::move(src))
    {
    }

  protected:
    std::size_t
    refill(MemAccess *dst, std::size_t max) override
    {
        std::size_t out = 0;
        while (out < max) {
            if (linePos_ == lineLen_ && !fillText())
                break;
            // Assemble one line across text-buffer refills.
            line_.clear();
            bool complete = false;
            while (!complete) {
                while (linePos_ < lineLen_) {
                    const char c = text_[linePos_++];
                    if (c == '\n') {
                        complete = true;
                        break;
                    }
                    line_.push_back(c);
                }
                if (!complete && !fillText()) {
                    complete = true; // final unterminated line
                    eof_ = true;
                }
            }
            ++lineno_;
            const char *p = line_.c_str();
            while (*p == ' ' || *p == '\t')
                ++p;
            if (*p == '\0' || *p == '#')
                continue;
            int label = 0;
            unsigned long long addr = 0;
            if (std::sscanf(p, "%d %llx", &label, &addr) != 2)
                bsim_fatal("bad trace line ", lineno_, " in '", path_,
                           "'");
            if (label < 0 || label > 2)
                bsim_fatal("bad record label ", label, " in '", path_,
                           "'");
            dst[out++] = {static_cast<Addr>(addr),
                          static_cast<AccessType>(label)};
        }
        return out;
    }

    /** Text has no header: the count is unknown until EOF. */
    std::uint64_t
    inputCount() const override
    {
        return kUnknownRecordCount;
    }

  private:
    bool
    fillText()
    {
        if (eof_)
            return false;
        lineLen_ = src_->read(text_, sizeof text_);
        linePos_ = 0;
        if (lineLen_ == 0)
            eof_ = true;
        return lineLen_ > 0;
    }

    std::unique_ptr<ByteSource> src_;
    char text_[64 * 1024];
    std::size_t linePos_ = 0, lineLen_ = 0;
    std::string line_;
    std::size_t lineno_ = 0;
    bool eof_ = false;
};

} // namespace

bool
zlibAvailable()
{
#if BSIM_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

void
gzipFile(const std::string &src, const std::string &dst)
{
#if BSIM_HAVE_ZLIB
    FileByteSource in(src);
    gzFile out = gzopen(dst.c_str(), "wb");
    if (!out)
        bsim_fatal("cannot open '", dst, "' for writing");
    char buf[64 * 1024];
    std::size_t n;
    while ((n = in.read(buf, sizeof buf)) > 0) {
        if (gzwrite(out, buf, static_cast<unsigned>(n)) !=
            static_cast<int>(n)) {
            gzclose(out);
            bsim_fatal("gzip write failed on '", dst, "'");
        }
    }
    if (gzclose(out) != Z_OK)
        bsim_fatal("gzip close failed on '", dst, "'");
#else
    bsim_fatal("cannot write gzip file '", dst,
               "': this build has no zlib");
#endif
}

TraceReaderPtr
openTraceReader(const std::string &path, const TraceShard &shard)
{
    const TraceInfo info = probeTrace(path);
    if (info.format == "dinero")
        return std::make_unique<DineroReader>(path, shard,
                                              openByteSource(path));
    if (info.compressed)
        return std::make_unique<Bst2SourceReader>(path, shard,
                                                  openByteSource(path));
    return std::make_unique<Bst2MmapReader>(path, shard);
}

TraceHandlePtr
openTraceHandle(const std::string &path)
{
    const TraceInfo info = probeTrace(path);
    std::shared_ptr<void> mapping;
    if (info.format == "BST2" && !info.compressed) {
        auto map = std::make_shared<MappedFile>(path);
        checkBst2Mapping(path, *map); // validate once, up front
        mapping = std::move(map);
    }
    return std::make_shared<const TraceHandle>(path, info,
                                               std::move(mapping));
}

TraceReaderPtr
openTraceReader(const TraceHandlePtr &handle, const TraceShard &shard)
{
    bsim_assert(handle != nullptr);
    if (handle->shared())
        return std::make_unique<Bst2MmapReader>(
            handle->path(), shard,
            std::static_pointer_cast<MappedFile>(handle->mapping()),
            /*shared_mapping=*/true);
    // Non-mappable inputs (gzip, text): the handle caches the
    // probe, but each reader owns its own sequential source.
    return openTraceReader(handle->path(), shard);
}

TraceInfo
probeTrace(const std::string &path)
{
    TraceInfo info;
    info.compressed = isGzPath(path);
    auto src = openByteSource(path); // fatal when the file is missing
    // Read before deciding, so an unreadable text trace (a directory,
    // say) fails here as it would in openTraceReader.
    unsigned char hdr[kBst2HeaderBytes];
    const std::size_t got = src->read(hdr, sizeof hdr);
    if (formatExtension(path) != ".bst") {
        info.format = "dinero";
        return info;
    }
    const Bst2Header h = parseBst2Header(path, hdr, got);
    info.format = "BST2";
    info.recordCount = h.recordCount;
    info.chunkLen = h.chunkLen;
    info.addrBits = h.addrBits;
    return info;
}

} // namespace bsim
