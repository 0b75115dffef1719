#include "workload/trace.hh"

#include <cstdio>
#include <memory>

#include "common/logging.hh"
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

} // namespace

void
writeTextTrace(const std::string &path,
               const std::vector<MemAccess> &accesses)
{
    FilePtr f(std::fopen(path.c_str(), "w"));
    if (!f)
        bsim_fatal("cannot open '", path, "' (mode w)");
    for (const auto &a : accesses) {
        if (std::fprintf(f.get(), "%d %llx\n", dineroLabel(a.type),
                         static_cast<unsigned long long>(a.addr)) < 0)
            bsim_fatal("write failed on '", path, "'");
    }
    if (std::fclose(f.release()) != 0)
        bsim_fatal("write failed on '", path, "'");
}

std::vector<MemAccess>
loadTrace(const std::string &path)
{
    // Grow with the records actually read: a header's record count is
    // only checked against the data as the data arrives (gzip input), so
    // it is no size to reserve.
    TraceReaderPtr reader = openTraceReader(path);
    std::vector<MemAccess> out;
    for (;;) {
        const std::span<const MemAccess> s = reader->nextSpan(65536);
        if (s.empty())
            return out;
        out.insert(out.end(), s.begin(), s.end());
    }
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
    recorded_.push_back(a);
    return a;
}

} // namespace bsim
