#include "workload/trace_format.hh"

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
    : path_(path), chunkLen_(chunk_len)
{
    bsim_assert(chunk_len > 0);
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        bsim_fatal("cannot open '", path, "' for writing");
    // Placeholder header; finish() seeks back with the real counts.
    unsigned char hdr[kBst2HeaderBytes];
    encodeBst2Header(Bst2Header{0, 64, chunkLen_, 0}, hdr);
    if (std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr) {
        std::fclose(file_);
        bsim_fatal("write failed on '", path_, "'");
    }
}

Bst2Writer::~Bst2Writer()
{
    if (file_)
        std::fclose(file_);
}

void
Bst2Writer::openChunk()
{
    chunkHeaderPos_ = std::ftell(file_);
    if (chunkHeaderPos_ < 0)
        bsim_fatal("ftell failed on '", path_, "'");
    unsigned char hdr[kBst2ChunkHeaderBytes];
    encodeBst2ChunkHeader(0, written_, hdr);
    if (std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr)
        bsim_fatal("write failed on '", path_, "'");
    inChunk_ = 0;
}

void
Bst2Writer::closeChunk()
{
    const long end = std::ftell(file_);
    unsigned char hdr[kBst2ChunkHeaderBytes];
    encodeBst2ChunkHeader(inChunk_, written_ - inChunk_, hdr);
    if (end < 0 || std::fseek(file_, chunkHeaderPos_, SEEK_SET) != 0 ||
        std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr ||
        std::fseek(file_, end, SEEK_SET) != 0)
        bsim_fatal("write failed on '", path_, "'");
    inChunk_ = 0;
}

void
Bst2Writer::append(std::span<const MemAccess> accesses)
{
    bsim_assert(!finished_);
    for (const MemAccess &a : accesses) {
        if (inChunk_ == 0)
            openChunk();
        unsigned char rec[kBst2RecordBytes];
        encodeBst2Record(a, rec);
        if (std::fwrite(rec, 1, sizeof rec, file_) != sizeof rec)
            bsim_fatal("write failed on '", path_, "'");
        maxAddr_ = a.addr > maxAddr_ ? a.addr : maxAddr_;
        ++written_;
        if (++inChunk_ == chunkLen_)
            closeChunk();
    }
}

void
Bst2Writer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (inChunk_ > 0)
        closeChunk();
    unsigned char hdr[kBst2HeaderBytes];
    encodeBst2Header(Bst2Header{written_, bitsFor(maxAddr_), chunkLen_, 0},
                     hdr);
    const bool wrote = std::fseek(file_, 0, SEEK_SET) == 0 &&
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
