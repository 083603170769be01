#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include <unistd.h>

namespace perfbench
{

namespace
{

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

const Span *
findSpan(const std::vector<Span> &spans, std::uint32_t id)
{
    for (const Span &s : spans) {
        if (s.id == id)
            return &s;
    }
    return nullptr;
}

/** Minimal JSON string escaping (labels are plain ASCII names). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::SortCall:
        return "sorter.sort_call";
    case SpanKind::SourceRead:
        return "io.source_read";
    case SpanKind::SinkWrite:
        return "io.sink_write";
    case SpanKind::SinkFinish:
        return "io.sink_finish";
    case SpanKind::SpillRead:
        return "io.spill_read";
    case SpanKind::SpillWrite:
        return "io.spill_write";
    case SpanKind::SpillFlush:
        return "io.spill_flush";
    case SpanKind::Microbench:
        return "microbench";
    }
    return "unknown";
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::int64_t
SpanRecorder::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::uint32_t
SpanRecorder::openRoot(SpanKind kind, std::string label)
{
    Span s;
    s.id = nextId_.fetch_add(1);
    s.kind = kind;
    s.thread = threadNumber();
    s.label = std::move(label);
    std::lock_guard<std::mutex> lock(mutex_);
    if (openRoot_ != SIZE_MAX)
        throw std::logic_error("a root span is already open");
    s.startNs = now();
    openRoot_ = spans_.size();
    spans_.push_back(std::move(s));
    rootId_.store(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::closeRoot(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (openRoot_ == SIZE_MAX || spans_[openRoot_].id != id)
        return; // RootSpan pairs every close with its open
    spans_[openRoot_].endNs = now();
    openRoot_ = SIZE_MAX;
    rootId_.store(0);
}

void
SpanRecorder::record(SpanKind kind, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t bytes)
{
    Span s;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    s.parent = rootId_.load();
    s.thread = threadNumber();
    s.kind = kind;
    s.bytes = bytes;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (openRoot_ != SIZE_MAX)
        throw std::logic_error("clearing spans while one is open");
    spans_.clear();
}

void
SpanRecorder::writeChromeTrace(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &metadata) const
{
    const std::vector<Span> all = spans();
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!out)
        throw std::runtime_error("cannot create trace file " + path);
    std::FILE *f = out.get();
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (std::size_t i = 0; i < metadata.size(); ++i)
        std::fprintf(f, "%s%s:%s", i == 0 ? "" : ",",
                     jsonString(metadata[i].first).c_str(),
                     jsonString(metadata[i].second).c_str());
    std::fprintf(f, "},\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        const std::string name =
            s.label.empty() ? spanName(s.kind) : s.label;
        const std::string cat =
            name.substr(0, std::min(name.find('.'), name.size()));
        std::fprintf(f,
                     "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"span\":%u,\"parent\":%u,"
                     "\"bytes\":%llu}}\n",
                     i == 0 ? "" : ",", jsonString(name).c_str(),
                     jsonString(cat).c_str(),
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     s.thread, s.id, s.parent,
                     static_cast<unsigned long long>(s.bytes));
    }
    std::fprintf(f, "]}\n");
    // Flushed now so its write-back cannot land in a later timed sort.
    if (std::fflush(f) != 0 || std::ferror(f) != 0 ||
        ::fdatasync(::fileno(f)) != 0)
        throw std::runtime_error("cannot write trace file " + path);
}

std::array<KindTotals, kSpanKinds>
childTotals(const std::vector<Span> &spans, std::uint32_t root)
{
    std::array<KindTotals, kSpanKinds> totals{};
    for (const Span &s : spans) {
        if (s.parent != root)
            continue;
        KindTotals &t = totals[static_cast<std::size_t>(s.kind)];
        ++t.calls;
        t.seconds += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    return totals;
}

double
selfSeconds(const std::vector<Span> &spans, std::uint32_t root)
{
    const Span *r = findSpan(spans, root);
    if (r == nullptr)
        return 0.0;
    // Children run on several threads at once, so subtract the union
    // of their intervals, clipped to the root, not their sum.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const Span &s : spans) {
        if (s.parent == root)
            iv.emplace_back(std::max(s.startNs, r->startNs),
                            std::min(s.endNs, r->endNs));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = r->startNs;
    for (const auto &[lo, hi] : iv) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) {
            covered += hi - from;
            reach = hi;
        }
    }
    return static_cast<double>(r->endNs - r->startNs - covered) * 1e-9;
}

bonsai::io::FaultAction
CountingFaultPolicy::onAttempt(const bonsai::io::FaultOp &op)
{
    using Kind = bonsai::io::FaultOp::Kind;
    switch (op.kind) {
    case Kind::Read:
        reads_.fetch_add(1, std::memory_order_relaxed);
        break;
    case Kind::Write:
        writes_.fetch_add(1, std::memory_order_relaxed);
        break;
    case Kind::Sync:
        syncs_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return {}; // pass-through: no cap, no injected errno
}

AttemptCounts
CountingFaultPolicy::counts() const
{
    AttemptCounts c;
    c.reads = reads_.load();
    c.writes = writes_.load();
    c.syncs = syncs_.load();
    return c;
}

} // namespace perfbench
