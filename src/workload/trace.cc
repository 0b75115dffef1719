#include "workload/trace.hh"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/strings.hh"
#include "workload/trace_reader.hh"

namespace bsim {

namespace {

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr
openOrDie(const std::string &path, const char *mode)
{
    FilePtr f(std::fopen(path.c_str(), mode));
    if (!f)
        bsim_fatal("cannot open '", path, "' (mode ", mode, ")");
    return f;
}

int
dineroLabel(AccessType t)
{
    switch (t) {
      case AccessType::Read:
        return 0;
      case AccessType::Write:
        return 1;
      case AccessType::Fetch:
        return 2;
    }
    return 0;
}

/** Drain a streaming reader into a vector (the whole-trace helpers). */
std::vector<MemAccess>
drainReader(TraceReader &reader)
{
    std::vector<MemAccess> out;
    if (reader.size() != kUnknownRecordCount)
        out.reserve(reader.size());
    for (;;) {
        const std::span<const MemAccess> s = reader.nextSpan(65536);
        if (s.empty())
            break;
        out.insert(out.end(), s.begin(), s.end());
    }
    return out;
}

} // namespace

void
writeBinaryTrace(const std::string &path,
                 const std::vector<MemAccess> &accesses)
{
    FilePtr f = openOrDie(path, "wb");
    if (std::fwrite(kBst1Magic, 1, 4, f.get()) != 4)
        bsim_fatal("write failed on '", path, "'");
    const std::uint64_t n = accesses.size();
    if (std::fwrite(&n, sizeof n, 1, f.get()) != 1)
        bsim_fatal("write failed on '", path, "'");
    for (const auto &a : accesses) {
        const std::uint8_t t = static_cast<std::uint8_t>(a.type);
        if (std::fwrite(&a.addr, sizeof a.addr, 1, f.get()) != 1 ||
            std::fwrite(&t, sizeof t, 1, f.get()) != 1)
            bsim_fatal("write failed on '", path, "'");
    }
    if (std::fclose(f.release()) != 0)
        bsim_fatal("write failed on '", path, "'");
}

std::vector<MemAccess>
readBinaryTrace(const std::string &path)
{
    TraceReaderPtr reader = openTraceReader(path);
    if (!startsWith(reader->format(), "BST"))
        bsim_fatal("'", path, "' is not a BST1/BST2 binary trace");
    return drainReader(*reader);
}

void
writeTextTrace(const std::string &path,
               const std::vector<MemAccess> &accesses)
{
    FilePtr f = openOrDie(path, "w");
    for (const auto &a : accesses) {
        if (std::fprintf(f.get(), "%d %llx\n", dineroLabel(a.type),
                         static_cast<unsigned long long>(a.addr)) < 0)
            bsim_fatal("write failed on '", path, "'");
    }
    if (std::fclose(f.release()) != 0)
        bsim_fatal("write failed on '", path, "'");
}

std::vector<MemAccess>
readTextTrace(const std::string &path)
{
    // Route through the streaming DineroReader so the error messages and
    // parsing rules stay identical in both layers.
    return drainReader(*openTextTraceReader(path));
}

std::vector<MemAccess>
loadTrace(const std::string &path)
{
    return drainReader(*openTraceReader(path));
}

RecordingStream::RecordingStream(AccessStreamPtr child)
    : child_(std::move(child))
{
    bsim_assert(child_ != nullptr);
}

MemAccess
RecordingStream::next()
{
    const MemAccess a = child_->next();
    if (limit_ == 0 || recorded_.size() < limit_)
        recorded_.push_back(a);
    else
        ++dropped_;
    return a;
}

void
RecordingStream::reset()
{
    child_->reset();
}

void
RecordingStream::clearRecorded()
{
    recorded_.clear();
    dropped_ = 0;
}

std::string
RecordingStream::name() const
{
    return "recording(" + child_->name() + ")";
}

} // namespace bsim
