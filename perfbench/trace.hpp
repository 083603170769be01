/**
 * @file
 * Tracing from outside the library: decorators around the public
 * RecordSource, RecordSink and RunStore interfaces that time and count
 * every call into the io layer, a pass-through FaultPolicy that counts
 * the syscall attempts of files the decorators cannot reach, and an
 * in-memory span recorder written out as Chrome trace-event JSON.
 *
 * A span is (kind, start, end, parent, thread, bytes).  Every io span
 * recorded while a sort call is open has that call's span as its
 * parent, so a sort's self time is its span minus the union of its io
 * children.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "io/byte_io.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "measure.hpp"

namespace perfbench
{

enum class SpanKind : std::uint8_t
{
    SortCall,
    SourceRead,
    SinkWrite,
    SinkFinish,
    SpillRead,
    SpillWrite,
    SpillFlush,
    Microbench,
};
inline constexpr std::size_t kSpanKinds = 8;

/** Trace-event name of a span kind ("io.spill_read", ...). */
const char *spanName(SpanKind kind);

struct Span
{
    std::int64_t startNs = 0; ///< since the recorder's epoch
    std::int64_t endNs = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::uint32_t thread = 0; ///< small per-thread number
    SpanKind kind = SpanKind::SortCall;
    std::uint64_t bytes = 0;
    std::string label; ///< sort calls and microbenches only
};

/** Count and summed duration of one span kind. */
struct KindTotals
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Nanoseconds since the recorder's epoch. */
    std::int64_t now() const;

    /** Record a finished leaf span under the open root. */
    void record(SpanKind kind, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t bytes);

    /** Spans recorded since the last clear(). */
    std::vector<Span> spans() const;

    /** Drop the recorded spans (no call may be recording). */
    void clear();

    /** Write every span as Chrome trace-event JSON; @p metadata lands
     *  in the file's "otherData" object.  Throws on I/O failure. */
    void writeChromeTrace(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &metadata)
        const;

  private:
    friend class RootSpan;

    std::uint32_t openRoot(SpanKind kind, std::string label);
    void closeRoot(std::uint32_t id);

    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;         ///< guarded by mutex_
    std::size_t openRoot_ = SIZE_MAX; ///< index into spans_, or none
    std::atomic<std::uint32_t> rootId_{0}; ///< 0 = no root open
    std::atomic<std::uint32_t> nextId_{1};
};

/** A root span open for the guard's lifetime: every span recorded
 *  meanwhile takes it as its parent.  One root is open at a time. */
class RootSpan
{
  public:
    RootSpan(SpanRecorder &rec, SpanKind kind, std::string label)
        : rec_(&rec), id_(rec.openRoot(kind, std::move(label)))
    {
    }
    ~RootSpan() { rec_->closeRoot(id_); }
    RootSpan(const RootSpan &) = delete;
    RootSpan &operator=(const RootSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::uint32_t id_;
};

/** Per-kind totals over the children of root span @p root. */
std::array<KindTotals, kSpanKinds>
childTotals(const std::vector<Span> &spans, std::uint32_t root);

/** Root span @p root's duration minus the union of its io children. */
double selfSeconds(const std::vector<Span> &spans, std::uint32_t root);

template <typename RecordT>
class TracedSource : public bonsai::io::RecordSource<RecordT>
{
  public:
    TracedSource(bonsai::io::RecordSource<RecordT> &inner,
                 SpanRecorder &rec)
        : inner_(&inner), rec_(&rec)
    {
    }

    std::uint64_t totalRecords() const override
    {
        return inner_->totalRecords();
    }

    std::uint64_t
    read(RecordT *dst, std::uint64_t max) override
    {
        const std::int64_t t0 = rec_->now();
        const std::uint64_t got = inner_->read(dst, max);
        rec_->record(SpanKind::SourceRead, t0, rec_->now(),
                     got * sizeof(RecordT));
        return got;
    }

    std::uint64_t
    skip(std::uint64_t count) override
    {
        return inner_->skip(count);
    }

  private:
    bonsai::io::RecordSource<RecordT> *inner_;
    SpanRecorder *rec_;
};

template <typename RecordT>
class TracedSink : public bonsai::io::RecordSink<RecordT>
{
  public:
    TracedSink(bonsai::io::RecordSink<RecordT> &inner, SpanRecorder &rec)
        : inner_(&inner), rec_(&rec)
    {
    }

    void
    write(const RecordT *src, std::uint64_t count) override
    {
        const std::int64_t t0 = rec_->now();
        inner_->write(src, count);
        rec_->record(SpanKind::SinkWrite, t0, rec_->now(),
                     count * sizeof(RecordT));
    }

    void
    finish() override
    {
        const std::int64_t t0 = rec_->now();
        inner_->finish();
        rec_->record(SpanKind::SinkFinish, t0, rec_->now(), 0);
    }

    bool supportsSegments() const override
    {
        return inner_->supportsSegments();
    }

    void
    beginSegments(std::uint64_t total) override
    {
        inner_->beginSegments(total);
    }

    void
    writeSegment(std::uint64_t offset, const RecordT *src,
                 std::uint64_t count) override
    {
        const std::int64_t t0 = rec_->now();
        inner_->writeSegment(offset, src, count);
        rec_->record(SpanKind::SinkWrite, t0, rec_->now(),
                     count * sizeof(RecordT));
    }

  private:
    bonsai::io::RecordSink<RecordT> *inner_;
    SpanRecorder *rec_;
};

/** Times every transfer of an inner store.  The decorator keeps its
 *  own run metadata and traffic counters (the engine reads both from
 *  the store it is handed), so its StreamStats match the inner
 *  store's exactly. */
template <typename RecordT>
class TracedRunStore : public bonsai::io::RunStore<RecordT>
{
  public:
    TracedRunStore(bonsai::io::RunStore<RecordT> &inner,
                   SpanRecorder &rec)
        : inner_(&inner), rec_(&rec)
    {
    }

    void
    writeAt(std::uint64_t offset, const RecordT *src,
            std::uint64_t count, const char *context = nullptr) override
    {
        const std::int64_t t0 = rec_->now();
        inner_->writeAt(offset, src, count, context);
        rec_->record(SpanKind::SpillWrite, t0, rec_->now(),
                     count * sizeof(RecordT));
        this->countWrite(count * sizeof(RecordT));
    }

    void
    readAt(std::uint64_t offset, RecordT *dst, std::uint64_t count,
           const char *context = nullptr) const override
    {
        const std::int64_t t0 = rec_->now();
        inner_->readAt(offset, dst, count, context);
        rec_->record(SpanKind::SpillRead, t0, rec_->now(),
                     count * sizeof(RecordT));
        this->countRead(count * sizeof(RecordT));
    }

    void
    flush(const char *context = nullptr) override
    {
        const std::int64_t t0 = rec_->now();
        inner_->flush(context);
        rec_->record(SpanKind::SpillFlush, t0, rec_->now(), 0);
    }

    bonsai::io::IoRetryStats retryStats() const override
    {
        return inner_->retryStats();
    }

    std::span<RecordT> memorySpan() override
    {
        return inner_->memorySpan();
    }

  private:
    bonsai::io::RunStore<RecordT> *inner_;
    SpanRecorder *rec_;
};

/** Syscall attempts one CountingFaultPolicy has seen. */
struct AttemptCounts
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t syncs = 0;
};

/** A FaultPolicy that only counts: every attempt proceeds unaltered. */
class CountingFaultPolicy : public bonsai::io::FaultPolicy
{
  public:
    bonsai::io::FaultAction onAttempt(
        const bonsai::io::FaultOp &op) override;

    AttemptCounts counts() const;

  private:
    std::atomic<std::uint64_t> reads_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> syncs_{0};
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
