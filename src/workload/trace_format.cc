#include "workload/trace_format.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace bsim {

namespace {

void
putU32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    putU32(p, static_cast<std::uint32_t>(v));
    putU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
getU32(const unsigned char *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

std::uint64_t
getU64(const unsigned char *p)
{
    return std::uint64_t{getU32(p)} | std::uint64_t{getU32(p + 4)} << 32;
}

unsigned
bitsFor(Addr max_addr)
{
    unsigned bits = 1;
    while (bits < 64 && (max_addr >> bits))
        ++bits;
    return bits;
}

} // namespace

std::uint64_t
Bst2Header::fileBytes() const
{
    return kBst2HeaderBytes + chunks() * kBst2ChunkHeaderBytes +
           recordCount * kBst2RecordBytes;
}

std::uint64_t
Bst2Header::chunkOffset(std::uint64_t index) const
{
    return kBst2HeaderBytes +
           index * (kBst2ChunkHeaderBytes +
                    std::uint64_t{chunkLen} * kBst2RecordBytes);
}

void
encodeBst2Header(const Bst2Header &h, unsigned char *out)
{
    std::memcpy(out, kBst2Magic, 4);
    putU32(out + 4, h.flags);
    putU64(out + 8, h.recordCount);
    putU32(out + 16, h.addrBits);
    putU32(out + 20, h.chunkLen);
}

bool
decodeBst2Header(const unsigned char *in, Bst2Header *out,
                 std::string *error)
{
    if (std::memcmp(in, kBst2Magic, 4) != 0) {
        *error = "bad magic";
        return false;
    }
    out->flags = getU32(in + 4);
    out->recordCount = getU64(in + 8);
    out->addrBits = getU32(in + 16);
    out->chunkLen = getU32(in + 20);
    if (out->flags != 0) {
        *error = "unknown flags (reserved bits set)";
        return false;
    }
    if (out->addrBits == 0 || out->addrBits > 64) {
        *error = "addr_bits out of range";
        return false;
    }
    if (out->chunkLen == 0) {
        *error = "zero chunk_len";
        return false;
    }
    return true;
}

void
encodeBst2ChunkHeader(std::uint32_t records, std::uint64_t first_index,
                      unsigned char *out)
{
    putU32(out, kBst2ChunkMarker);
    putU32(out + 4, records);
    putU64(out + 8, first_index);
}

bool
decodeBst2ChunkHeader(const unsigned char *in,
                      std::uint32_t expect_records,
                      std::uint64_t expect_first_index, std::string *error)
{
    if (getU32(in) != kBst2ChunkMarker) {
        *error = "bad chunk marker";
        return false;
    }
    const std::uint32_t records = getU32(in + 4);
    const std::uint64_t first = getU64(in + 8);
    if (records != expect_records) {
        *error = "chunk record count " + std::to_string(records) +
                 " != expected " + std::to_string(expect_records);
        return false;
    }
    if (first != expect_first_index) {
        *error = "chunk first index " + std::to_string(first) +
                 " != expected " + std::to_string(expect_first_index);
        return false;
    }
    return true;
}

void
encodeBst2Record(const MemAccess &a, unsigned char *out)
{
    putU64(out, a.addr);
    out[8] = static_cast<unsigned char>(a.type);
    std::memset(out + 9, 0, 7);
}

MemAccess
decodeBst2Record(const unsigned char *in)
{
    return {getU64(in), static_cast<AccessType>(in[8])};
}

std::uint64_t
validateBst2Payload(const unsigned char *payload, std::uint64_t records)
{
    // The record tail (type byte, LSB of the second word, plus 7 reserved
    // zero bytes) must decode to a whole little-endian u64 in {0, 1, 2}.
    for (std::uint64_t i = 0; i < records; ++i) {
        const std::uint64_t tail =
            getU64(payload + i * kBst2RecordBytes + 8);
        if (tail > 2)
            return i;
    }
    return records;
}

Bst2Writer::Bst2Writer(const std::string &path, std::uint32_t chunk_len)
    : path_(path),
      buf_(std::make_unique_for_overwrite<unsigned char[]>(
          kBst2WriteBufferBytes)),
      chunkLen_(chunk_len)
{
    bsim_assert(chunk_len > 0);
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        bsim_fatal("cannot open '", path, "' for writing");
    // Every write hands over a whole buffer; a stdio buffer would only
    // add a copy.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    // Placeholder header; finish() seeks back with the real counts.
    encodeBst2Header(Bst2Header{0, 64, chunkLen_, 0}, buf_.get());
    used_ = kBst2HeaderBytes;
}

Bst2Writer::~Bst2Writer()
{
    if (file_)
        std::fclose(file_);
}

void
Bst2Writer::flush()
{
    if (std::fwrite(buf_.get(), 1, used_, file_) != used_)
        bsim_fatal("write failed on '", path_, "'");
    used_ = 0;
}

void
Bst2Writer::append(std::span<const MemAccess> accesses)
{
    bsim_assert(!finished_);
    // A chunk header only opens an empty buffer (the file header aside),
    // and a buffer without room for one more record is flushed, so every
    // pass encodes at least one record.
    while (!accesses.empty()) {
        if (inChunk_ == 0) {
            // Every chunk but the last is full; finish() corrects a short
            // last one.
            encodeBst2ChunkHeader(chunkLen_, written_, buf_.get() + used_);
            used_ += kBst2ChunkHeaderBytes;
        }
        const std::size_t n = std::min(
            {accesses.size(), std::size_t{chunkLen_ - inChunk_},
             (kBst2WriteBufferBytes - used_) / kBst2RecordBytes});
        unsigned char *out = buf_.get() + used_;
        for (const MemAccess &a : accesses.first(n)) {
            encodeBst2Record(a, out);
            out += kBst2RecordBytes;
            maxAddr_ = a.addr > maxAddr_ ? a.addr : maxAddr_;
        }
        accesses = accesses.subspan(n);
        used_ += n * kBst2RecordBytes;
        written_ += n;
        inChunk_ += static_cast<std::uint32_t>(n);
        if (inChunk_ == chunkLen_)
            inChunk_ = 0;
        if (inChunk_ == 0 ||
            used_ + kBst2RecordBytes > kBst2WriteBufferBytes)
            flush();
    }
}

void
Bst2Writer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flush();
    buf_.reset();
    const Bst2Header h{written_, bitsFor(maxAddr_), chunkLen_, 0};
    bool wrote = true;
    if (inChunk_ > 0) {
        unsigned char chunk[kBst2ChunkHeaderBytes];
        encodeBst2ChunkHeader(inChunk_, written_ - inChunk_, chunk);
        wrote = std::fseek(file_, static_cast<long>(
                                      h.chunkOffset(h.chunks() - 1)),
                           SEEK_SET) == 0 &&
                std::fwrite(chunk, 1, sizeof chunk, file_) == sizeof chunk;
    }
    unsigned char hdr[kBst2HeaderBytes];
    encodeBst2Header(h, hdr);
    wrote = wrote && std::fseek(file_, 0, SEEK_SET) == 0 &&
            std::fwrite(hdr, 1, sizeof hdr, file_) == sizeof hdr;
    if (std::fclose(std::exchange(file_, nullptr)) != 0 || !wrote)
        bsim_fatal("write failed on '", path_, "'");
}

void
writeBst2Trace(const std::string &path,
               const std::vector<MemAccess> &accesses,
               std::uint32_t chunk_len)
{
    Bst2Writer w(path, chunk_len);
    w.append(std::span<const MemAccess>(accesses.data(), accesses.size()));
    w.finish();
}

} // namespace bsim
