/**
 * @file
 * The on-disk binary trace format, BST2. The normative byte-level
 * specification lives in docs/TRACES.md; this header is the single
 * source of truth for the constants and the encode/decode helpers shared
 * by the writer (Bst2Writer, writeBst2Trace) and the readers
 * (workload/trace_reader).
 *
 * A BST2 file is the magic "BST2", a fixed 24-byte header, then fixed
 * capacity chunks, each with a 16-byte framed header and 16-byte records
 * whose in-memory layout matches MemAccess on little-endian LP64 hosts —
 * which is what lets the mmap reader hand spans straight into
 * MemLevel::accessBatch with no per-record copy. Any other magic is
 * rejected.
 *
 * All multi-byte fields are little-endian.
 */

#ifndef BSIM_WORKLOAD_TRACE_FORMAT_HH
#define BSIM_WORKLOAD_TRACE_FORMAT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "mem/access.hh"

namespace bsim {

inline constexpr char kBst2Magic[4] = {'B', 'S', 'T', '2'};
/** "CHNK" as a little-endian u32, leading every chunk. */
inline constexpr std::uint32_t kBst2ChunkMarker = 0x4b4e4843u;
/** magic, u32 flags, u64 record count, u32 addr bits, u32 chunk len. */
inline constexpr std::size_t kBst2HeaderBytes = 24;
/** u32 marker, u32 records in chunk, u64 first record index. */
inline constexpr std::size_t kBst2ChunkHeaderBytes = 16;
/** u64 address, u8 type, 7 reserved (zero) bytes. */
inline constexpr std::size_t kBst2RecordBytes = 16;
/** Records per chunk written by default (1 MiB chunk payloads). */
inline constexpr std::uint32_t kBst2DefaultChunkLen = 65536;

/** Decoded BST2 file header. */
struct Bst2Header
{
    std::uint64_t recordCount = 0;
    /** All addresses in the trace are < 2^addrBits (1..64). */
    std::uint32_t addrBits = 64;
    /** Chunk capacity in records; every chunk but the last is full. */
    std::uint32_t chunkLen = kBst2DefaultChunkLen;
    /** Reserved; writers emit 0, readers reject non-zero. */
    std::uint32_t flags = 0;

    /** Number of chunks a recordCount-record file has. */
    std::uint64_t
    chunks() const
    {
        return chunkLen ? (recordCount + chunkLen - 1) / chunkLen : 0;
    }

    /** Total on-disk bytes of a well-formed file with this header. */
    std::uint64_t fileBytes() const;

    /** Byte offset of chunk @p index's chunk header. */
    std::uint64_t chunkOffset(std::uint64_t index) const;
};

/**
 * True when MemAccess's in-memory layout coincides with the BST2 record
 * encoding (little-endian u64 at offset 0, type byte at offset 8,
 * 16-byte size), i.e. when mmap'd chunk payloads can be reinterpreted as
 * MemAccess spans without copying. Holds on every LP64 little-endian
 * target; the readers fall back to a converting path otherwise.
 */
inline constexpr bool kBst2RecordMatchesMemAccess =
    std::endian::native == std::endian::little &&
    sizeof(MemAccess) == kBst2RecordBytes && sizeof(Addr) == 8 &&
    alignof(MemAccess) <= 8;

/** Serialize @p h into @p out (kBst2HeaderBytes bytes, incl. magic). */
void encodeBst2Header(const Bst2Header &h, unsigned char *out);

/**
 * Parse a BST2 header from @p in (must hold kBst2HeaderBytes bytes).
 * Returns false with *error set on bad magic / flags / fields.
 */
bool decodeBst2Header(const unsigned char *in, Bst2Header *out,
                      std::string *error);

/** Serialize one chunk header (marker, count, first index). */
void encodeBst2ChunkHeader(std::uint32_t records,
                           std::uint64_t first_index, unsigned char *out);

/**
 * Parse and validate one chunk header against the expectation derived
 * from the file header. Returns false with *error set on mismatch.
 */
bool decodeBst2ChunkHeader(const unsigned char *in,
                           std::uint32_t expect_records,
                           std::uint64_t expect_first_index,
                           std::string *error);

/** Serialize one record (16 bytes, reserved bytes zeroed). */
void encodeBst2Record(const MemAccess &a, unsigned char *out);

/**
 * Parse one record (the inverse of encodeBst2Record). The type byte is
 * taken as is: validateBst2Payload is the check that it is known.
 */
MemAccess decodeBst2Record(const unsigned char *in);

/**
 * Validate the tail word (type byte + reserved bytes) of every record in
 * a chunk payload: each must decode to a known AccessType with zero
 * reserved bytes. Returns the index of the first bad record, or
 * @p records if all are valid. One 8-byte load per record; this is the
 * per-chunk validation pass the zero-copy reader runs instead of a
 * per-record conversion.
 */
std::uint64_t validateBst2Payload(const unsigned char *payload,
                                  std::uint64_t records);

/**
 * Incremental BST2 writer: append spans in any sizes; chunk framing and
 * the header (record count, address width) are maintained internally and
 * patched on finish(). Fatal on any I/O failure. A writer destroyed
 * before finish() only closes its file (the destructor never throws),
 * leaving the placeholder header, so call finish() to complete a trace.
 */
class Bst2Writer
{
  public:
    explicit Bst2Writer(const std::string &path,
                        std::uint32_t chunk_len = kBst2DefaultChunkLen);
    ~Bst2Writer();

    Bst2Writer(const Bst2Writer &) = delete;
    Bst2Writer &operator=(const Bst2Writer &) = delete;

    void append(std::span<const MemAccess> accesses);
    void
    append(const MemAccess &a)
    {
        append(std::span<const MemAccess>(&a, 1));
    }

    /** Flush, patch the header, close. Idempotent. */
    void finish();

    std::uint64_t recordsWritten() const { return written_; }

  private:
    void openChunk();
    void closeChunk();

    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint32_t chunkLen_;
    std::uint64_t written_ = 0;
    std::uint32_t inChunk_ = 0;
    /** File offset of the open chunk's header (patched on close). */
    long chunkHeaderPos_ = 0;
    Addr maxAddr_ = 0;
    bool finished_ = false;
};

/** Write a whole trace as BST2 in one call. Fatal on I/O failure. */
void writeBst2Trace(const std::string &path,
                    const std::vector<MemAccess> &accesses,
                    std::uint32_t chunk_len = kBst2DefaultChunkLen);

} // namespace bsim

#endif // BSIM_WORKLOAD_TRACE_FORMAT_HH
