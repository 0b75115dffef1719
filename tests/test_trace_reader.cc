/**
 * Unit tests for the streaming trace layer (workload/trace_reader and
 * workload/trace_format): BST2/Dinero/gzip round trips through
 * TraceReader spans at awkward chunk boundaries, shard windows, header
 * probing, truncation diagnostics, rejection of other binary formats
 * and case-insensitive dispatch.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/random.hh"
#include "workload/trace.hh"
#include "workload/trace_format.hh"
#include "workload/trace_reader.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

class TraceReaderTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("bsim_trace_reader_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

/** Deterministic mixed-type trace of @p n records. */
std::vector<MemAccess>
sampleTrace(std::size_t n)
{
    std::vector<MemAccess> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto type = i % 7 == 3   ? AccessType::Write
                          : i % 5 == 4 ? AccessType::Fetch
                                       : AccessType::Read;
        t.push_back({0x1000 + Addr(i) * 24, type});
    }
    return t;
}

/** Drain @p reader through nextSpan(max_n) into a vector. */
std::vector<MemAccess>
drain(TraceReader &reader, std::size_t max_n)
{
    std::vector<MemAccess> out;
    for (;;) {
        const std::span<const MemAccess> s = reader.nextSpan(max_n);
        if (s.empty())
            break;
        out.insert(out.end(), s.begin(), s.end());
    }
    return out;
}

void
expectSame(const std::vector<MemAccess> &got,
           const std::vector<MemAccess> &want, std::size_t from = 0,
           std::size_t count = ~std::size_t{0})
{
    if (count == ~std::size_t{0})
        count = want.size() - from;
    ASSERT_EQ(got.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(got[i].addr, want[from + i].addr) << "record " << i;
        EXPECT_EQ(got[i].type, want[from + i].type) << "record " << i;
    }
}

TEST_F(TraceReaderTest, Bst2RoundTripsAtAwkwardSizes)
{
    // Chunk length 8 so even tiny traces span several chunks; sizes
    // straddle every boundary case (empty, one, chunk-1, chunk,
    // chunk+1, several chunks + partial tail).
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
        const auto in = sampleTrace(n);
        const std::string p = path("rt" + std::to_string(n) + ".bst");
        writeBst2Trace(p, in, 8);
        // Odd span clamps exercise spans that stop mid-chunk.
        for (const std::size_t max_n : {1u, 3u, 8u, 64u})
            expectSame(drain(*openTraceReader(p), max_n), in);
    }
}

TEST_F(TraceReaderTest, Bst2SpansNeverCrossChunks)
{
    const auto in = sampleTrace(20);
    writeBst2Trace(path("c.bst"), in, 8);
    auto reader = openTraceReader(path("c.bst"));
    // Asking for more than a chunk still returns at most one chunk.
    EXPECT_EQ(reader->nextSpan(1000).size(), 8u);
    EXPECT_EQ(reader->nextSpan(1000).size(), 8u);
    EXPECT_EQ(reader->nextSpan(1000).size(), 4u);
    EXPECT_TRUE(reader->nextSpan(1000).empty());
}

TEST_F(TraceReaderTest, ShardWindowsMidFile)
{
    const auto in = sampleTrace(50);
    writeBst2Trace(path("s.bst"), in, 8);
    // Windows at chunk-aligned and deliberately unaligned starts.
    for (const auto &[first, count] :
         {std::pair<std::uint64_t, std::uint64_t>{0, 10},
          {8, 16},
          {5, 11},
          {40, 10},
          {48, 2}}) {
        auto reader =
            openTraceReader(path("s.bst"), TraceShard{first, count});
        expectSame(drain(*reader, 9), in, first, count);
    }
    // recordCount == kUnknownRecordCount runs through end of file.
    auto tail = openTraceReader(path("s.bst"), TraceShard{45});
    expectSame(drain(*tail, 64), in, 45, 5);
}

TEST_F(TraceReaderTest, ShardClampsAndRejects)
{
    const auto in = sampleTrace(10);
    writeBst2Trace(path("cl.bst"), in, 8);
    // A window reaching past EOF is clamped...
    auto reader =
        openTraceReader(path("cl.bst"), TraceShard{8, 1000});
    expectSame(drain(*reader, 64), in, 8, 2);
    // ...but a start beyond the file is a configuration error.
    EXPECT_FATAL(openTraceReader(path("cl.bst"), TraceShard{11, 1}),
                 "shard start");
    // The sequential readers cannot seek there, so they find out by
    // decoding, at the first nextSpan.
    writeTextTrace(path("cl.din"), in);
    std::vector<std::string> sequential{path("cl.din")};
    if (zlibAvailable()) {
        gzipFile(path("cl.bst"), path("cl.bst.gz"));
        sequential.push_back(path("cl.bst.gz"));
    }
    for (const std::string &p : sequential) {
        SCOPED_TRACE(p);
        auto past = openTraceReader(p, TraceShard{11, 1});
        EXPECT_FATAL(past->nextSpan(64), "shard start");
    }
}

TEST_F(TraceReaderTest, DineroRoundTripAndShards)
{
    const auto in = sampleTrace(25);
    writeTextTrace(path("t.din"), in);
    auto reader = openTraceReader(path("t.din"));
    expectSame(drain(*reader, 6), in);
    // Sequential sources satisfy windows by decode-and-discard.
    auto window = openTraceReader(path("t.din"), TraceShard{10, 5});
    expectSame(drain(*window, 64), in, 10, 5);
}

TEST_F(TraceReaderTest, GzipRoundTripsWhenZlibPresent)
{
    if (!zlibAvailable())
        GTEST_SKIP() << "built without zlib";
    const auto in = sampleTrace(60);
    writeBst2Trace(path("g.bst"), in, 16);
    gzipFile(path("g.bst"), path("g2.bst.gz"));
    const TraceInfo info = probeTrace(path("g2.bst.gz"));
    EXPECT_EQ(info.format, "BST2");
    EXPECT_TRUE(info.compressed);
    EXPECT_EQ(info.recordCount, 60u);
    expectSame(drain(*openTraceReader(path("g2.bst.gz")), 11), in);
    // Windowing works on the sequential inflate path too.
    auto window =
        openTraceReader(path("g2.bst.gz"), TraceShard{17, 20});
    expectSame(drain(*window, 7), in, 17, 20);

    writeTextTrace(path("g.din"), in);
    gzipFile(path("g.din"), path("g3.din.gz"));
    expectSame(drain(*openTraceReader(path("g3.din.gz")), 64), in);
}

TEST_F(TraceReaderTest, CaseInsensitiveExtensionDispatch)
{
    const auto in = sampleTrace(12);
    writeBst2Trace(path("UPPER.BST"), in, 8);
    EXPECT_EQ(probeTrace(path("UPPER.BST")).format, "BST2");
    writeTextTrace(path("MiXeD.DiN"), in);
    EXPECT_EQ(probeTrace(path("MiXeD.DiN")).format, "dinero");
    expectSame(loadTrace(path("UPPER.BST")), in);
    expectSame(loadTrace(path("MiXeD.DiN")), in);
}

TEST_F(TraceReaderTest, TruncatedBst2IsFatalNotGarbage)
{
    const auto in = sampleTrace(100);
    writeBst2Trace(path("full.bst"), in, 16);
    // Chop the file mid-payload: the mmap reader must refuse up front
    // (header/file-size cross-check), naming format and path.
    std::error_code ec;
    const auto full = std::filesystem::file_size(path("full.bst"), ec);
    std::filesystem::resize_file(path("full.bst"), full - 40, ec);
    ASSERT_FALSE(ec);
    EXPECT_FATAL(openTraceReader(path("full.bst")), "truncated BST2 trace");
}

TEST_F(TraceReaderTest, TruncatedBst2HeaderIsFatal)
{
    std::FILE *f = std::fopen(path("hdr.bst").c_str(), "wb");
    std::fwrite(kBst2Magic, 1, 4, f);
    std::fclose(f);
    EXPECT_FATAL(openTraceReader(path("hdr.bst")), "truncated BST2 trace");
}

TEST_F(TraceReaderTest, OverDeclaredGzipBst2IsTruncatedNotAnAbort)
{
    // A gzip stream cannot be sized up front, so a header that declares
    // 2^60 records over 64 real ones must fail where the data ends, not
    // by reserving the declared count.
    if (!zlibAvailable())
        GTEST_SKIP() << "built without zlib";
    writeBst2Trace(path("huge.bst"), sampleTrace(64), 16);
    unsigned char hdr[kBst2HeaderBytes];
    encodeBst2Header(Bst2Header{std::uint64_t{1} << 60, 64, 16, 0}, hdr);
    std::FILE *f = std::fopen(path("huge.bst").c_str(), "r+b");
    std::fwrite(hdr, 1, sizeof hdr, f);
    std::fclose(f);
    gzipFile(path("huge.bst"), path("huge.bst.gz"));
    EXPECT_FATAL(loadTrace(path("huge.bst.gz")), "truncated BST2 trace");
}

TEST_F(TraceReaderTest, Bst1ImageIsRejectedAsBadMagic)
{
    // The retired flat format: "BST1", a u64 record count, then packed
    // 9-byte {u64 address, u8 type} records. It is just another magic
    // that is not BST2, plain or gzipped, on every way in.
    std::vector<unsigned char> image = {'B', 'S', 'T', '1', 2, 0, 0, 0,
                                        0,   0,   0,   0};
    for (const MemAccess &a : sampleTrace(2)) {
        for (int b = 0; b < 8; ++b)
            image.push_back(static_cast<unsigned char>(a.addr >> 8 * b));
        image.push_back(static_cast<unsigned char>(a.type));
    }
    std::FILE *f = std::fopen(path("v1.bst").c_str(), "wb");
    std::fwrite(image.data(), 1, image.size(), f);
    std::fclose(f);
    std::vector<std::string> paths{path("v1.bst")};
    if (zlibAvailable()) {
        gzipFile(path("v1.bst"), path("v1.bst.gz"));
        paths.push_back(path("v1.bst.gz"));
    }
    for (const std::string &p : paths) {
        const std::string want =
            "'" + p + "' is not a BST2 binary trace (bad magic)";
        EXPECT_FATAL(loadTrace(p), want);
        EXPECT_FATAL(openTraceReader(p), want);
        EXPECT_FATAL(probeTrace(p), want);
    }
}

TEST_F(TraceReaderTest, CorruptBst2PayloadIsFatal)
{
    const auto in = sampleTrace(10);
    writeBst2Trace(path("p.bst"), in, 8);
    // Scribble a bad type byte into record 3's tail (offset 8 of the
    // 16-byte record): validation must name the record.
    std::FILE *f = std::fopen(path("p.bst").c_str(), "r+b");
    const long off = long(kBst2HeaderBytes + kBst2ChunkHeaderBytes +
                          3 * kBst2RecordBytes + 8);
    std::fseek(f, off, SEEK_SET);
    std::fputc(0x77, f);
    std::fclose(f);
    // Validation is per chunk on first use, so the death happens on
    // the draining read, not at open.
    EXPECT_FATAL(drain(*openTraceReader(path("p.bst")), 64),
                 "malformed BST2 trace");
}

TEST_F(TraceReaderTest, ProbeReportsHeaderFacts)
{
    const auto in = sampleTrace(33);
    writeBst2Trace(path("i.bst"), in, 8);
    const TraceInfo info = probeTrace(path("i.bst"));
    EXPECT_EQ(info.format, "BST2");
    EXPECT_EQ(info.recordCount, 33u);
    EXPECT_EQ(info.chunkLen, 8u);
    EXPECT_GT(info.addrBits, 0u);
    EXPECT_FALSE(info.compressed);

    writeTextTrace(path("i.din"), in);
    const TraceInfo text = probeTrace(path("i.din"));
    EXPECT_EQ(text.format, "dinero");
    EXPECT_EQ(text.recordCount, kUnknownRecordCount);
}

TEST_F(TraceReaderTest, Bst2FuzzRoundTripsRandomShapes)
{
    // Property fuzz over the writer/reader pair: random payload sizes x
    // random chunk capacities x random span clamps must all round-trip
    // bit-exactly and agree with the header probe.
    Rng rng(0x5eedf00d);
    for (int iter = 0; iter < 40; ++iter) {
        const auto n = static_cast<std::size_t>(rng.nextBounded(400));
        const auto chunk =
            static_cast<std::uint32_t>(1 + rng.nextBounded(96));
        const std::string p = path("fz" + std::to_string(iter) + ".bst");
        const auto in = sampleTrace(n);
        writeBst2Trace(p, in, chunk);

        const TraceInfo info = probeTrace(p);
        ASSERT_EQ(info.recordCount, n) << "iter " << iter;
        ASSERT_EQ(info.chunkLen, chunk) << "iter " << iter;

        const auto max_n =
            static_cast<std::size_t>(1 + rng.nextBounded(2 * chunk));
        auto reader = openTraceReader(p);
        expectSame(drain(*reader, max_n), in);
    }
}

TEST_F(TraceReaderTest, TruncatedTailChunkIsFatal)
{
    // Chop exactly one record off the final (partial) chunk: the
    // header/file-size cross-check must refuse the whole file.
    const auto in = sampleTrace(20); // chunkLen 8 -> 4-record tail
    writeBst2Trace(path("tail.bst"), in, 8);
    std::error_code ec;
    const auto full = std::filesystem::file_size(path("tail.bst"), ec);
    std::filesystem::resize_file(path("tail.bst"),
                                 full - kBst2RecordBytes, ec);
    ASSERT_FALSE(ec);
    EXPECT_FATAL(openTraceReader(path("tail.bst")), "truncated BST2 trace");
}

TEST_F(TraceReaderTest, CorruptChunkFrameHeaderIsFatal)
{
    const auto in = sampleTrace(30); // chunkLen 8 -> 4 chunks
    writeBst2Trace(path("cf.bst"), in, 8);
    // Scribble over chunk 2's frame marker ("CHNK"): validation names
    // the malformed chunk instead of mis-framing the rest of the file.
    std::FILE *f = std::fopen(path("cf.bst").c_str(), "r+b");
    const long off =
        long(kBst2HeaderBytes +
             2 * (kBst2ChunkHeaderBytes + 8 * kBst2RecordBytes));
    std::fseek(f, off, SEEK_SET);
    std::fputc(0x00, f);
    std::fclose(f);
    EXPECT_FATAL(drain(*openTraceReader(path("cf.bst")), 64),
                 "malformed BST2 trace");
}

TEST_F(TraceReaderTest, CorruptChunkRecordCountIsFatal)
{
    const auto in = sampleTrace(30);
    writeBst2Trace(path("cc.bst"), in, 8);
    // Inflate chunk 0's in-chunk record count (u32 at frame offset 4):
    // it now disagrees with the file header's chunk geometry.
    std::FILE *f = std::fopen(path("cc.bst").c_str(), "r+b");
    std::fseek(f, long(kBst2HeaderBytes + 4), SEEK_SET);
    std::fputc(0xff, f);
    std::fclose(f);
    EXPECT_FATAL(drain(*openTraceReader(path("cc.bst")), 64),
                 "malformed BST2 trace");
}

/**
 * The BST2 bytes of @p records, encoded from the specification in
 * docs/TRACES.md §1 alone: the 24-byte header, then chunks of
 * @p chunk_len records (the last may be short), each behind its 16-byte
 * frame, each record an address, a type byte and 7 zero bytes.
 */
std::vector<unsigned char>
referenceBst2(std::span<const MemAccess> records, std::uint32_t chunk_len)
{
    std::vector<unsigned char> out;
    auto put = [&out](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            out.push_back(static_cast<unsigned char>(v >> (8 * i)));
    };
    Addr widest = 0;
    for (const MemAccess &a : records)
        widest = std::max(widest, a.addr);
    out.insert(out.end(), {'B', 'S', 'T', '2'});
    put(0, 4); // flags
    put(records.size(), 8);
    put(std::max<std::uint64_t>(1, std::bit_width(widest)), 4);
    put(chunk_len, 4);
    for (std::size_t first = 0; first < records.size(); first += chunk_len) {
        const std::size_t n =
            std::min<std::size_t>(chunk_len, records.size() - first);
        out.insert(out.end(), {'C', 'H', 'N', 'K'});
        put(n, 4);
        put(first, 8);
        for (const MemAccess &a : records.subspan(first, n)) {
            put(a.addr, 8);
            put(static_cast<std::uint8_t>(a.type), 1);
            put(0, 7);
        }
    }
    return out;
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST_F(TraceReaderTest, WriterMatchesAReferenceEncoder)
{
    // Chunk lengths below, at and above the writer's buffer (one default
    // chunk) and the largest the format allows; record counts of none,
    // whole chunks and a short last chunk; spans of every shape.
    constexpr std::uint32_t kMaxChunk =
        std::numeric_limits<std::uint32_t>::max();
    const struct
    {
        std::uint32_t chunkLen;
        std::vector<std::size_t> counts;
    } cases[] = {
        {1, {0, 50}},
        {8, {0, 64, 65, 67}},
        {65536, {0, 2 * 65536, 2 * 65536 + 123}},
        {70000, {0, 2 * 70000, 2 * 70000 + 5}},
        {kMaxChunk, {0, 200000}},
    };
    Rng rng(0xb572);
    std::vector<MemAccess> pool(200000);
    for (std::size_t i = 0; i < pool.size(); ++i)
        pool[i] = {rng.next() >> (24 + i % 17),
                   static_cast<AccessType>(i % 3)};
    const std::string file = path("w.bst");
    for (const auto &c : cases) {
        for (const std::size_t count : c.counts) {
            const std::span<const MemAccess> records =
                std::span<const MemAccess>(pool).first(count);
            const std::vector<unsigned char> want =
                referenceBst2(records, c.chunkLen);
            const std::uint64_t len = c.chunkLen;
            for (const std::uint64_t step :
                 {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1024},
                  len - 1, len + 1, std::uint64_t{count}}) {
                if (step == 0)
                    continue;
                SCOPED_TRACE(testing::Message()
                             << "chunkLen " << c.chunkLen << ", " << count
                             << " records in spans of " << step);
                Bst2Writer w(file, c.chunkLen);
                for (std::size_t at = 0; at < count; at += step)
                    w.append(records.subspan(
                        at, std::min<std::uint64_t>(step, count - at)));
                w.finish();
                const std::vector<unsigned char> got = readBytes(file);
                ASSERT_EQ(got.size(), want.size());
                EXPECT_TRUE(got == want);
            }
        }
    }
    // One chunk of 2^32 - 1 records would be 64 GiB: the writer still
    // hands all but its bounded buffer to the file as it goes.
    Bst2Writer w(file, kMaxChunk);
    w.append(pool);
    EXPECT_GE(std::filesystem::file_size(file) + kBst2WriteBufferBytes,
              kBst2HeaderBytes + kBst2ChunkHeaderBytes +
                  pool.size() * kBst2RecordBytes);
    w.finish();
    EXPECT_TRUE(readBytes(file) == referenceBst2(pool, kMaxChunk));
}

TEST_F(TraceReaderTest, WritesToAFullDeviceThrowAndWritersCloseQuietly)
{
    // /dev/full takes the open and the buffered writes, then fails every
    // flush: each writer must report that, not just the open.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    const auto in = sampleTrace(100); // fits one stdio buffer
    const std::span<const MemAccess> all(in);
    EXPECT_FATAL(writeTextTrace("/dev/full", in), "write failed");
    EXPECT_FATAL(writeBst2Trace("/dev/full", in, 4), "write failed");
    {
        Bst2Writer w("/dev/full", 4); // the first full chunk flushes
        EXPECT_FATAL(w.append(all), "write failed");
    }
    {
        Bst2Writer w("/dev/full");
        w.append(all);
        EXPECT_FATAL(w.finish(), "write failed");
    }
    {
        // Dropped unfinished: the destructor closes without throwing,
        // or this process would terminate here.
        Bst2Writer w("/dev/full");
        w.append(all);
    }
}

} // namespace
} // namespace bsim
