/** @file
 * Fault-injection tests for the out-of-core streaming sort: a fault
 * in any lane — the input source, phase-1 spill, phase-2 group
 * merge, final splitter pass, or the output sink — must surface as
 * exactly one clean std::runtime_error from sortStream, with every
 * pool buffer returned (no deadlocked gate, no leak), and a transient
 * fault that heals within the retry budget must not change a single
 * output byte.
 *
 * The engine checks the pool itself on every exit: a leak throws a
 * ContractViolation (a std::logic_error), which the
 * catch (const std::runtime_error &) below lets escape and fail the
 * test.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "common/record.hpp"
#include "io/fault_injection.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/external.hpp"

namespace bonsai::sorter
{
namespace
{

/** Same shape as the main external tests: 1000-record chunks, 4-way
 *  merges, lanes for up to 4 threads within the budget. */
StreamEngine<Record>::Options
faultOptions(unsigned threads)
{
    StreamEngine<Record>::Options opt;
    opt.phase1Ell = 4;
    opt.phase2Ell = 4;
    opt.presortRun = 16;
    opt.chunkRecords = 1000;
    opt.batchRecords = 128;
    opt.bufferBudgetBytes = 64 * 128 * sizeof(Record);
    opt.threads = threads;
    return opt;
}

/** The fault-free reference bytes: sortChunks with the engine's chunk
 *  length, fan-ins and presort, at one thread. */
std::vector<Record>
faultFreeSort(std::vector<Record> data)
{
    const auto opt = faultOptions(1);
    ThreadPool pool(1);
    sortChunks(data, opt.chunkRecords,
               BehavioralSorter<Record>(opt.phase1Ell, opt.presortRun),
               BehavioralSorter<Record>(opt.phase2Ell, 1), pool);
    return data;
}

/** Retries resolve in microseconds so failure tests don't sleep. */
io::RetryPolicy
fastRetries()
{
    io::RetryPolicy r;
    r.backoffBaseMicros = 1;
    return r;
}

/** Streamed sort against caller-provided (possibly faulty) stores. */
std::vector<Record>
streamSort(const StreamEngine<Record> &engine,
           const std::vector<Record> &data,
           io::FileRunStore<Record> &front,
           io::FileRunStore<Record> &back, StreamStats *stats = nullptr)
{
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    out.reserve(data.size());
    io::MemorySink<Record> sink(out);
    const StreamStats s = engine.sortStream(source, sink, front, back);
    if (stats)
        *stats = s;
    return out;
}

/** A test file, deleted on every exit of the scope that names it. */
struct RemovedOnExit
{
    std::string path;

    ~RemovedOnExit()
    {
        std::error_code ignored;
        std::filesystem::remove(path, ignored);
    }
};

/** Run the sort expecting a runtime_error (a leaked pool buffer would
 *  throw a ContractViolation past the catch).  Returns the error text
 *  for content checks. */
std::string
expectCleanFailure(const StreamEngine<Record> &engine,
                   const std::vector<Record> &data,
                   io::FileRunStore<Record> &front,
                   io::FileRunStore<Record> &back)
{
    std::string msg;
    try {
        streamSort(engine, data, front, back);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    EXPECT_FALSE(msg.empty())
        << "injected fault did not surface from sortStream";
    return msg;
}

TEST(StreamEngineFaults, HardSpillWriteErrorUnwindsCleanly)
{
    // Phase 1: the spill worker's writeAt hits unhealing EIO while
    // the main thread is still filling the other chunk buffer.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnWriteAttempt = 2;
        plan.eioFailures = 1'000'000; // never heals
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("phase-1 spill"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, SpillEnospcAtAByteOffsetUnwindsCleanly)
{
    // A full spill device partway through phase 1: ENOSPC is not
    // retried, the first failing lane wins, nothing leaks.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.enospcAtWriteByte = 100'000; // of ~480 KiB spilled
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, HardMergeReadErrorUnwindsCleanly)
{
    // Phase 2: a run cursor's prefetch read dies mid-group-merge.
    // Attempt 40 lands past phase 1 (writes only) and past the cursor
    // constructors' initial fills, squarely in streamed prefetch.
    const auto data = makeRecords(30'000, Distribution::FewDistinct);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 40;
        plan.eioFailures = 1'000'000;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("streaming run"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, CursorConstructionErrorDoesNotLeakBuffers)
{
    // The very first read of phase 2 fails: the cursor is mid-
    // construction holding two freshly acquired buffers, the exact
    // spot where a throwing constructor used to leak pool accounting.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 1;
        plan.eioFailures = 1'000'000;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
    }
}

/** Fails every read starting in bytes [@p begin, @p end); never
 *  heals. */
class FailReadsIn final : public io::FaultPolicy
{
  public:
    FailReadsIn(std::uint64_t begin, std::uint64_t end)
        : begin_(begin), end_(end)
    {
    }

    io::FaultAction
    onAttempt(const io::FaultOp &op) override
    {
        io::FaultAction act;
        if (op.kind == io::FaultOp::Kind::Read && op.offset >= begin_ &&
            op.offset < end_)
            act.failWith = EIO;
        return act;
    }

  private:
    std::uint64_t begin_;
    std::uint64_t end_;
};

TEST(StreamEngineFaults, SingletonGroupReadErrorUnwindsCleanly)
{
    // 3 runs at fan-in 2: the first pass merges the groups {0, 2}
    // and {1} (StagePlan interleaves runs across groups).  Only reads
    // of run 1 fail, so the error comes from the lone member's run
    // cursor.
    const auto data = makeRecords(3'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        front.setFaultPolicy(std::make_shared<FailReadsIn>(
            1'000 * sizeof(Record), 2'000 * sizeof(Record)));
        front.setRetryPolicy(fastRetries());

        auto opt = faultOptions(threads);
        opt.phase2Ell = 2;
        const StreamEngine<Record> engine(opt);
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("streaming run @1000+1000"),
                  std::string::npos)
            << msg;
    }
}

TEST(StreamEngineFaults, FinalSplitterPassFaultUnwindsCleanly)
{
    // Exactly ell runs: phase 2 is a single final pass, so the first
    // failing read happens under the splitter-partitioned drain (the
    // probe reads at threads >= 2, the slice cursors at threads = 1).
    const auto data = makeRecords(4'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 1;
        plan.eioFailures = 1'000'000;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, MergePassWriteBackErrorUnwindsCleanly)
{
    // The destination store of a non-final merge pass rejects the
    // write-back: the StreamWriter's background flush carries the
    // error to the draining lane.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnWriteAttempt = 3;
        plan.eioFailures = 1'000'000;
        back.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        back.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("merge group"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, SourceReadErrorInPhase1UnwindsCleanly)
{
    // The *input* device fails mid-phase-1: a chunk load in flight on
    // the worker hits unhealing EIO while the caller sorts the chunk
    // before it.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::ByteFile input = io::ByteFile::createTemp();
        input.writeAt(0, data.data(), data.size() * sizeof(Record));
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 12; // chunk 11 of 30: a read per chunk
        plan.eioFailures = 1'000'000; // never heals
        input.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        input.setRetryPolicy(fastRetries());
        io::FileSource<Record> source(std::move(input));
        std::vector<Record> out;
        io::MemorySink<Record> sink(out);
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;

        const StreamEngine<Record> engine(faultOptions(threads));
        unsigned failures = 0;
        std::string msg;
        try {
            engine.sortStream(source, sink, front, back);
        } catch (const std::runtime_error &e) {
            ++failures;
            msg = e.what();
        }
        EXPECT_EQ(failures, 1u)
            << "source EIO did not surface from sortStream";
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sequential input scan"), std::string::npos)
            << msg;
    }
}

TEST(StreamEngineFaults, SinkEnospcDuringTheFinalPassUnwindsCleanly)
{
    // The *output* device fills up mid-final-pass: positioned segment
    // writes from the slice workers hit the ENOSPC cliff.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::MemorySource<Record> source{std::span<const Record>(data)};
        const RemovedOnExit output{::testing::TempDir() +
                                   "bonsai_enospc_sink_" +
                                   std::to_string(threads) + ".bin"};
        io::FileSink<Record> sink(io::ByteFile::create(output.path));
        io::FaultPlan plan;
        plan.enospcAtWriteByte = 200'000; // of ~480 KiB of output
        sink.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        sink.setRetryPolicy(fastRetries());
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;

        const StreamEngine<Record> engine(faultOptions(threads));
        std::string msg;
        try {
            engine.sortStream(source, sink, front, back);
        } catch (const std::runtime_error &e) {
            msg = e.what();
        }
        EXPECT_FALSE(msg.empty())
            << "sink ENOSPC did not surface from sortStream";
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, HealedTransientFaultIsByteIdentical)
{
    // Transient EIO within the retry budget: the sort must succeed
    // with the exact bytes of a fault-free run, and the retries must
    // show up in the engine telemetry.
    const auto data = makeRecords(30'000, Distribution::FewDistinct);
    const auto expected = faultFreeSort(data);

    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 5;
        plan.eioFailures = 2; // heals within maxAttempts = 4
        plan.eioOnWriteAttempt = 7;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        StreamStats stats;
        const auto out = streamSort(engine, data, front, back, &stats);
        ASSERT_EQ(out, expected)
            << "healed transient fault changed the output bytes";
        EXPECT_GT(stats.ioTransientRetries, 0u);
    }
}

TEST(StreamEngineFaults, ShortTransfersAndEintrAreInvisible)
{
    // A storm of short transfers and EINTR on the spill device: no
    // retries burned, no error, identical bytes — just telemetry.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    const auto expected = faultFreeSort(data);

    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.seed = 7;
        plan.shortEveryReads = 3;
        plan.shortEveryWrites = 3;
        plan.eintrEvery = 11;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        back.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));

        const StreamEngine<Record> engine(faultOptions(threads));
        StreamStats stats;
        const auto out = streamSort(engine, data, front, back, &stats);
        ASSERT_EQ(out, expected);
        EXPECT_GT(stats.ioShortTransfers, 0u);
        EXPECT_GT(stats.ioEintrRetries, 0u);
        EXPECT_EQ(stats.ioTransientRetries, 0u);
    }
}

TEST(StreamEngineFaults, EveryReadFailingThrowsOneRuntimeErrorWithoutLeaks)
{
    // When every read on the spill device dies, multiple lanes and
    // cleanup paths fail behind the primary; they must be absorbed,
    // never thrown: exactly one runtime_error escapes, and no leaked
    // buffer turns it into a ContractViolation.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    io::FaultPlan plan;
    plan.eioOnReadAttempt = 1;
    plan.eioFailures = 1'000'000;
    front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
    front.setRetryPolicy(fastRetries());

    const StreamEngine<Record> engine(faultOptions(4));
    EXPECT_THROW(streamSort(engine, data, front, back),
                 std::runtime_error);
}

} // namespace
} // namespace bonsai::sorter
