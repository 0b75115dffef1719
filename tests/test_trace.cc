/** Unit tests for trace capture/replay and the two on-disk formats. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "workload/generators.hh"
#include "workload/trace.hh"
#include "expect_fatal.hh"

namespace bsim {
namespace {

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("bsim_trace_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

std::vector<MemAccess>
sampleAccesses()
{
    return {{0x1000, AccessType::Read},
            {0x2008, AccessType::Write},
            {0x400000, AccessType::Fetch},
            {0xdeadbeef00ull, AccessType::Read}};
}

TEST_F(TraceTest, BinaryRoundTrip)
{
    const auto in = sampleAccesses();
    writeBst2Trace(path("t.bst"), in);
    const auto out = loadTrace(path("t.bst"));
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].addr, in[i].addr);
        EXPECT_EQ(out[i].type, in[i].type);
    }
}

TEST_F(TraceTest, TextRoundTrip)
{
    const auto in = sampleAccesses();
    writeTextTrace(path("t.din"), in);
    const auto out = loadTrace(path("t.din"));
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].addr, in[i].addr);
        EXPECT_EQ(out[i].type, in[i].type);
    }
}

TEST_F(TraceTest, TextSkipsCommentsAndBlanks)
{
    std::FILE *f = std::fopen(path("c.din").c_str(), "w");
    std::fprintf(f, "# dinero trace\n\n0 1000\n   \n2 400000\n");
    std::fclose(f);
    const auto out = loadTrace(path("c.din"));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].addr, 0x1000u);
    EXPECT_EQ(out[1].type, AccessType::Fetch);
}

TEST_F(TraceTest, LoadDispatchesByExtension)
{
    const auto in = sampleAccesses();
    writeBst2Trace(path("a.bst"), in);
    writeTextTrace(path("a.din"), in);
    EXPECT_EQ(loadTrace(path("a.bst")).size(), in.size());
    EXPECT_EQ(loadTrace(path("a.din")).size(), in.size());
}

TEST_F(TraceTest, EmptyTraceRoundTrips)
{
    writeBst2Trace(path("e.bst"), {});
    EXPECT_TRUE(loadTrace(path("e.bst")).empty());
}

TEST_F(TraceTest, BadMagicIsFatal)
{
    std::FILE *f = std::fopen(path("bad.bst").c_str(), "wb");
    std::fwrite("NOPE", 1, 4, f);
    std::fclose(f);
    EXPECT_FATAL(loadTrace(path("bad.bst")),
                 "not a BST2 binary trace (bad magic)");
}

TEST_F(TraceTest, MissingFileIsFatal)
{
    EXPECT_FATAL(loadTrace(path("nonexistent.bst")), "cannot open");
}

TEST_F(TraceTest, BadTextLineIsFatal)
{
    std::FILE *f = std::fopen(path("bad.din").c_str(), "w");
    std::fprintf(f, "read 0x100\n");
    std::fclose(f);
    EXPECT_FATAL(loadTrace(path("bad.din")), "bad trace line 1");
}

TEST_F(TraceTest, BadLabelIsFatal)
{
    std::FILE *f = std::fopen(path("lbl.din").c_str(), "w");
    std::fprintf(f, "7 100\n");
    std::fclose(f);
    EXPECT_FATAL(loadTrace(path("lbl.din")), "bad record label");
}

TEST(RecordingStream, CapturesEverything)
{
    auto seq = std::make_unique<SequentialStream>(0, 256, 8);
    RecordingStream rec(std::move(seq));
    for (int i = 0; i < 10; ++i)
        rec.next();
    ASSERT_EQ(rec.recorded().size(), 10u);
    EXPECT_EQ(rec.recorded()[3].addr, 24u);
    rec.clearRecorded();
    EXPECT_TRUE(rec.recorded().empty());
}

TEST_F(TraceTest, CaptureThenReplayMatchesLive)
{
    // Record a stream, write it out, replay through VectorStream: the
    // replayed accesses must match the live ones exactly.
    SequentialStream live(0x8000, 512, 8);
    RecordingStream rec(
        std::make_unique<SequentialStream>(0x8000, 512, 8));
    for (int i = 0; i < 200; ++i)
        rec.next();
    writeBst2Trace(path("cap.bst"), rec.recorded());
    VectorStream replay(loadTrace(path("cap.bst")));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(replay.next().addr, live.next().addr);
}

} // namespace
} // namespace bsim
