#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/gensort.hpp"
#include "core/optimizer.hpp"
#include "core/platforms.hpp"
#include "core/ssd_planner.hpp"
#include "io/byte_io.hpp"
#include "io/manifest.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/external.hpp"
#include "sorter/sorters.hpp"
#include "verify.hpp"

namespace perfbench
{

namespace
{

using bonsai::GensortGenerator;
using bonsai::GensortRecord;
using bonsai::Record128;
using bonsai::sorter::StreamStats;
namespace io = bonsai::io;
namespace sorter = bonsai::sorter;

/** The modeled record width r the in-memory sort is given (the packed
 *  AMT record of Section VI-A), which is also what its MB/s counts. */
constexpr std::uint64_t kAmtRecordBytes = 16;
constexpr std::uint64_t kGenerateBatch = 1 << 16;

constexpr std::uint64_t kFileRecords = 2'000'000;
/** 8 MiB against a 200 MB input: 25x out of core. */
constexpr std::uint64_t kFileBudgetBytes = 8ULL << 20;

std::uint64_t
orDefault(std::uint64_t records, std::uint64_t fallback)
{
    return records != 0 ? records : fallback;
}

/** The per-layer readings a sort reports through StreamStats. */
void
addStreamReadings(const StreamStats &s, Readings &out)
{
    out.emplace_back("sorter.phase1_s", s.phase1Seconds);
    out.emplace_back("sorter.phase2_s", s.phase2Seconds);
    out.emplace_back("sorter.read_stall_s", s.readStallSeconds);
    out.emplace_back("sorter.write_stall_s", s.writeStallSeconds);
    out.emplace_back("sorter.merge_passes", s.mergePasses);
    out.emplace_back("sorter.batch_records",
                     static_cast<double>(s.batchRecords));
    out.emplace_back("sorter.effective_ell", s.effectiveEll);
    out.emplace_back("sorter.pool_peak_kib",
                     static_cast<double>(s.bufferPoolPeakBytes) / 1024.0);
    out.emplace_back("sorter.manifest_commits",
                     static_cast<double>(s.manifestCommits));
}

class InMemoryWorkload : public Workload
{
  public:
    explicit InMemoryWorkload(const WorkloadConfig &cfg)
        : cfg_(cfg), n_(orDefault(cfg.records, kInMemRecords))
    {
    }

    void
    setup() override
    {
        input_ = packedGensort(cfg_.seed, n_);
        sorter_ = std::make_unique<sorter::DramSorter>();
        sorter_->setThreads(1);
    }

    void prepare() override { want_ = oracleForPacked(input_); }

    std::uint64_t
    inputBytes() const override
    {
        return n_ * kAmtRecordBytes;
    }

    SortRun
    sort() override
    {
        SortRun r = run(nullptr, nullptr);
        reference_ = r.stats;
        return r;
    }

    SortRun
    tracedSort(SpanRecorder &rec, Readings &out) override
    {
        std::uint32_t root = 0;
        SortRun r = run(&rec, &root);
        if (r.error.empty())
            r.error = deterministicDiff(r.stats, reference_);
        addStreamReadings(r.stats, out);
        out.emplace_back("sorter.self_s", selfSeconds(rec.spans(), root));
        return r;
    }

    double
    writeAmp(const StreamStats &s) const override
    {
        // Every merge stage rewrites each record into the other DRAM
        // buffer; a record moved is a record written.
        return static_cast<double>(s.recordsMoved) /
            static_cast<double>(n_);
    }

    void
    planOnce() const override
    {
        bonsai::model::BonsaiInputs in;
        in.array = {n_, kAmtRecordBytes};
        in.hw = sorter_->hardware();
        if (!bonsai::core::Optimizer(in, {})
                 .best(bonsai::core::Objective::Latency))
            throw std::runtime_error("no feasible AMT configuration");
    }

  private:
    /** Copy the input, time the sort call (inside a root span of
     *  @p rec when tracing), corrupt on request, verify. */
    SortRun
    run(SpanRecorder *rec, std::uint32_t *root)
    {
        std::vector<Record128> work = input_;
        SortRun r;
        const auto call = [&] {
            r.stats = sorter_->sort(work, kAmtRecordBytes).stream;
        };
        if (rec == nullptr) {
            r.cost = measureCall(call);
        } else {
            r.cost = measureCall([&] {
                const RootSpan span(*rec, SpanKind::SortCall,
                                    "sorter.DramSorter::sort");
                *root = span.id();
                call();
            });
        }
        if (cfg_.corrupt == "drop")
            work.erase(work.begin() + static_cast<std::ptrdiff_t>(n_ / 2));
        else if (cfg_.corrupt == "swap")
            std::swap(work[n_ / 4], work[3 * n_ / 4]);
        r.error = checkPacked(work.data(), work.size()).verdict(want_);
        return r;
    }

    WorkloadConfig cfg_;
    std::uint64_t n_;
    std::vector<Record128> input_;
    std::unique_ptr<sorter::DramSorter> sorter_;
    Expected want_;
    StreamStats reference_; ///< the last untraced sort's counters
};

class FileWorkload : public Workload
{
  public:
    FileWorkload(const WorkloadConfig &cfg, bool durable)
        : cfg_(cfg), durable_(durable),
          n_(orDefault(cfg.records, kFileRecords)),
          input_(cfg.workDir + "/" + cfg.name + ".input"),
          output_(cfg.workDir + "/" + cfg.name + ".output"),
          jobDir_(cfg.workDir + "/" + cfg.name + ".ckpt")
    {
    }

    ~FileWorkload() override
    {
        std::remove(input_.c_str());
        std::remove(output_.c_str());
        if (durable_) {
            try {
                io::removeJobArtifacts(jobDir_);
            } catch (const std::exception &) {
                // Best-effort cleanup; the sorts already reported.
            }
        }
    }

    void
    setup() override
    {
        const GensortGenerator gen(cfg_.seed);
        std::unique_ptr<std::FILE, int (*)(std::FILE *)> file(
            std::fopen(input_.c_str(), "wb"), &std::fclose);
        if (!file)
            throw std::runtime_error("cannot create " + input_);
        for (std::uint64_t lo = 0; lo < n_; lo += kGenerateBatch) {
            const auto batch =
                gen.generate(lo, std::min(kGenerateBatch, n_ - lo));
            if (std::fwrite(batch.data(), GensortRecord::kBytes,
                            batch.size(), file.get()) != batch.size())
                throw std::runtime_error("cannot write " + input_);
        }
        if (std::fflush(file.get()) != 0)
            throw std::runtime_error("cannot write " + input_);
        sorter_ = std::make_unique<sorter::SsdSorter>();
        sorter_->setThreads(cfg_.threads);
        opts_.memoryBudgetBytes = kFileBudgetBytes;
        opts_.spillDir = cfg_.workDir;
        if (durable_) {
            opts_.checkpointDir = jobDir_;
            io::createDirectories(jobDir_);
            io::removeJobArtifacts(jobDir_);
        }
    }

    void
    prepare() override
    {
        const int fd = ::open(input_.c_str(), O_RDONLY);
        const bool flushed = fd >= 0 && ::fdatasync(fd) == 0;
        if (fd >= 0)
            ::close(fd);
        if (!flushed)
            throw std::runtime_error("cannot flush " + input_);
        want_ = oracleForFile(input_);
    }

    std::uint64_t
    inputBytes() const override
    {
        return n_ * GensortRecord::kBytes;
    }

    SortRun
    sort() override
    {
        SortRun r;
        {
            io::FileSource<GensortRecord> source(
                io::ByteFile::openRead(input_));
            io::FileSink<GensortRecord> sink(io::ByteFile::create(output_));
            r.cost = measureCall([&] {
                report_ = sorter_->sortStream(source, sink,
                                              GensortRecord::kBytes, opts_);
            });
        }
        r.stats = report_.stream;
        finishSort(r);
        return r;
    }

    SortRun
    tracedSort(SpanRecorder &rec, Readings &out) override
    {
        if (durable_ && plainSpillRead_ == 0)
            plainSpillRead_ = plainSpillBytesRead();
        const StreamStats reference = report_.stream;
        auto sinkPolicy = std::make_shared<CountingFaultPolicy>();
        auto filePolicy = std::make_shared<CountingFaultPolicy>();
        SortRun r;
        std::uint32_t root = 0;
        {
            io::FileSource<GensortRecord> source(
                io::ByteFile::openRead(input_));
            io::FileSink<GensortRecord> sink(io::ByteFile::create(output_));
            sink.setFaultPolicy(sinkPolicy);
            TracedSource<GensortRecord> tsource(source, rec);
            TracedSink<GensortRecord> tsink(sink, rec);
            const sorter::StreamEngine<GensortRecord> engine(
                engineOptions());
            if (durable_) {
                sorter::StreamEngine<GensortRecord>::DurableOptions d;
                d.dir = jobDir_;
                d.faultPolicy = filePolicy;
                r.cost = measureCall([&] {
                    const RootSpan span(rec, SpanKind::SortCall,
                                        "sorter.StreamEngine::"
                                        "sortStreamDurable");
                    root = span.id();
                    r.stats = engine.sortStreamDurable(tsource, tsink, d);
                });
            } else {
                io::FileRunStore<GensortRecord> front(cfg_.workDir);
                io::FileRunStore<GensortRecord> back(cfg_.workDir);
                front.setFaultPolicy(filePolicy);
                back.setFaultPolicy(filePolicy);
                TracedRunStore<GensortRecord> tfront(front, rec);
                TracedRunStore<GensortRecord> tback(back, rec);
                r.cost = measureCall([&] {
                    const RootSpan span(rec, SpanKind::SortCall,
                                        "sorter.StreamEngine::sortStream");
                    root = span.id();
                    r.stats = engine.sortStream(tsource, tsink, tfront,
                                                tback);
                });
            }
        }
        finishSort(r);
        if (r.error.empty())
            r.error = deterministicDiff(r.stats, reference);

        const std::vector<Span> spans = rec.spans();
        const auto totals = childTotals(spans, root);
        const auto kind = [&](SpanKind k) {
            return totals[static_cast<std::size_t>(k)];
        };
        const AttemptCounts files = filePolicy->counts();
        const AttemptCounts sinkFile = sinkPolicy->counts();
        const StreamStats &s = r.stats;
        addStreamReadings(s, out);
        out.emplace_back("sorter.self_s", selfSeconds(spans, root));
        out.emplace_back("io.source_read_s",
                         kind(SpanKind::SourceRead).seconds);
        out.emplace_back("io.sink_write_s",
                         kind(SpanKind::SinkWrite).seconds +
                             kind(SpanKind::SinkFinish).seconds);
        // The durable sort's stores live inside the engine: their
        // calls are counted through the fault policy (which also sees
        // one manifest write per commit) and cannot be timed.
        const double readCalls = durable_
            ? static_cast<double>(files.reads)
            : static_cast<double>(kind(SpanKind::SpillRead).calls);
        const double writeCalls = durable_
            ? static_cast<double>(files.writes - s.manifestCommits)
            : static_cast<double>(kind(SpanKind::SpillWrite).calls);
        out.emplace_back("io.spill_read_calls", readCalls);
        out.emplace_back("io.spill_write_calls", writeCalls);
        out.emplace_back("io.spill_read_s",
                         kind(SpanKind::SpillRead).seconds);
        out.emplace_back("io.spill_write_s",
                         kind(SpanKind::SpillWrite).seconds);
        const double calls = readCalls + writeCalls;
        out.emplace_back(
            "io.spill_bytes_per_call",
            calls == 0 ? 0.0
                       : static_cast<double>(s.spillBytesRead +
                                             s.spillBytesWritten) /
                    calls);
        out.emplace_back("io.sync_calls",
                         static_cast<double>(files.syncs + sinkFile.syncs));
        out.emplace_back("io.readback_bytes",
                         durable_ ? static_cast<double>(s.spillBytesRead) -
                                 static_cast<double>(plainSpillRead_)
                                  : 0.0);
        return r;
    }

    double
    writeAmp(const StreamStats &s) const override
    {
        return static_cast<double>(s.spillBytesWritten) /
            static_cast<double>(inputBytes());
    }

    void
    planOnce() const override
    {
        // The plan SsdSorter::sortStream makes, at the chunk it chose.
        if (!bonsai::core::planSsdSort(
                {n_, GensortRecord::kBytes}, bonsai::core::awsF1(), {}, {},
                report_.plan.chunkRecords * GensortRecord::kBytes))
            throw std::runtime_error("no feasible SSD two-phase plan");
    }

  private:
    /** The engine options the last untraced SsdSorter::sortStream ran
     *  with, recovered from its report. */
    sorter::StreamEngine<GensortRecord>::Options
    engineOptions() const
    {
        sorter::StreamEngine<GensortRecord>::Options eng;
        eng.phase1Ell = report_.plan.phase1.config.ell;
        eng.phase2Ell = report_.plan.phase2.config.ell;
        eng.presortRun = bonsai::model::MergerArchParams{}.presortRunLength;
        eng.chunkRecords = report_.plan.chunkRecords;
        eng.batchRecords = report_.stream.batchRecords;
        eng.bufferBudgetBytes = report_.stream.bufferPoolBytes;
        eng.threads = cfg_.threads;
        return eng;
    }

    /** Spill bytes the same sort reads without a checkpoint. */
    std::uint64_t
    plainSpillBytesRead() const
    {
        sorter::SsdSorter::StreamOptions plain = opts_;
        plain.checkpointDir.clear();
        io::FileSource<GensortRecord> source(io::ByteFile::openRead(input_));
        io::FileSink<GensortRecord> sink(io::ByteFile::create(output_));
        return sorter_->sortStream(source, sink, GensortRecord::kBytes, plain)
            .stream.spillBytesRead;
    }

    /** Corrupt on request, verify, clear the job directory. */
    void
    finishSort(SortRun &r)
    {
        if (!cfg_.corrupt.empty())
            corruptOutput();
        r.error = checkFile(output_).verdict(want_);
        if (durable_)
            io::removeJobArtifacts(jobDir_);
    }

    /** Self-test damage: drop the middle record, or swap two. */
    void
    corruptOutput() const
    {
        std::vector<GensortRecord> recs(n_);
        {
            std::ifstream in(output_, std::ios::binary);
            in.read(reinterpret_cast<char *>(recs.data()),
                    static_cast<std::streamsize>(n_ * GensortRecord::kBytes));
        }
        if (cfg_.corrupt == "drop")
            recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(n_ / 2));
        else
            std::swap(recs[n_ / 4], recs[3 * n_ / 4]);
        std::ofstream out(output_, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(recs.data()),
                  static_cast<std::streamsize>(recs.size() *
                                               GensortRecord::kBytes));
    }

    WorkloadConfig cfg_;
    bool durable_;
    std::uint64_t n_;
    std::string input_;
    std::string output_;
    std::string jobDir_;
    std::unique_ptr<sorter::SsdSorter> sorter_;
    sorter::SsdSorter::StreamOptions opts_;
    sorter::SsdSorter::SsdReport report_; ///< the last untraced sort's
    Expected want_;
    std::uint64_t plainSpillRead_ = 0;
};

} // namespace

std::vector<Record128>
packedGensort(std::uint64_t seed, std::uint64_t n)
{
    const GensortGenerator gen(seed);
    std::vector<Record128> out;
    out.reserve(n);
    for (std::uint64_t lo = 0; lo < n; lo += kGenerateBatch) {
        for (const GensortRecord &rec :
             gen.generate(lo, std::min(kGenerateBatch, n - lo)))
            out.push_back(bonsai::packGensort(rec));
    }
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadConfig &cfg)
{
    if (cfg.name == "inmem_sort")
        return std::make_unique<InMemoryWorkload>(cfg);
    if (cfg.name == "extsort_file")
        return std::make_unique<FileWorkload>(cfg, false);
    if (cfg.name == "extsort_durable")
        return std::make_unique<FileWorkload>(cfg, true);
    return nullptr;
}

std::string
deterministicDiff(const StreamStats &a, const StreamStats &b)
{
    const std::pair<const char *, bool> checks[] = {
        {"recordsIn", a.recordsIn == b.recordsIn},
        {"recordsMoved", a.recordsMoved == b.recordsMoved},
        {"phase1RecordsMoved", a.phase1RecordsMoved == b.phase1RecordsMoved},
        {"phase1Chunks", a.phase1Chunks == b.phase1Chunks},
        {"spillBytesWritten", a.spillBytesWritten == b.spillBytesWritten},
        {"spillBytesRead", a.spillBytesRead == b.spillBytesRead},
        {"mergePasses", a.mergePasses == b.mergePasses},
        {"effectiveEll", a.effectiveEll == b.effectiveEll},
        {"concurrentGroups", a.concurrentGroups == b.concurrentGroups},
        {"finalSlices", a.finalSlices == b.finalSlices},
        {"batchRecords", a.batchRecords == b.batchRecords},
        {"bufferPoolBytes", a.bufferPoolBytes == b.bufferPoolBytes},
        {"manifestCommits", a.manifestCommits == b.manifestCommits},
    };
    for (const auto &[name, same] : checks) {
        if (!same)
            return std::string("deterministic counter ") + name +
                " differs from the reference sort's";
    }
    return "";
}

} // namespace perfbench
