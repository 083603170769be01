/** @file Unit tests for the out-of-core streaming sort engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/external.hpp"

namespace bonsai::sorter
{
namespace
{

/** Small engine: 1000-record chunks, 4-way merges, 128-record batches
 *  with a budget comfortably above 2*ell + 2 buffers. */
StreamEngine<Record>::Options
smallOptions()
{
    StreamEngine<Record>::Options opt;
    opt.phase1Ell = 4;
    opt.phase2Ell = 4;
    opt.presortRun = 16;
    opt.chunkRecords = 1000;
    opt.batchRecords = 128;
    opt.bufferBudgetBytes = 64 * 128 * sizeof(Record);
    opt.threads = 2;
    return opt;
}

/** The in-memory reference: sortChunks with the engine's chunk
 *  length, fan-ins, presort and thread count. */
StreamStats
chunkSort(const StreamEngine<Record>::Options &opt,
          std::vector<Record> &data)
{
    ThreadPool pool(opt.threads);
    return sortChunks(
        data, opt.chunkRecords,
        BehavioralSorter<Record>(opt.phase1Ell, opt.presortRun,
                                 opt.threads),
        BehavioralSorter<Record>(opt.phase2Ell, 1, opt.threads), pool);
}

std::vector<Record>
streamSort(const StreamEngine<Record> &engine,
           const std::vector<Record> &data, StreamStats *stats = nullptr)
{
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    out.reserve(data.size());
    io::MemorySink<Record> sink(out);
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    const StreamStats s = engine.sortStream(source, sink, front, back);
    if (stats)
        *stats = s;
    return out;
}

TEST(StreamEngine, SortChunksMatchesStdSort)
{
    auto data = makeRecords(20'000, Distribution::UniformRandom);
    auto expected = data;
    std::sort(expected.begin(), expected.end(),
              [](const Record &a, const Record &b) {
                  return a.key < b.key ||
                      (a.key == b.key && a.value < b.value);
              });

    const StreamStats stats = chunkSort(smallOptions(), data);
    EXPECT_EQ(data, expected);
    EXPECT_EQ(stats.recordsIn, 20'000u);
    EXPECT_EQ(stats.phase1Chunks, 20u); // ceil(20000 / 1000)
    EXPECT_GT(stats.mergePasses, 0u);
    EXPECT_GT(stats.phase1RecordsMoved, 0u);
    EXPECT_GT(stats.recordsMoved, stats.phase1RecordsMoved);
}

TEST(StreamEngine, StreamedOutputIsByteIdenticalToInPlace)
{
    // FewDistinct floods the merge with equal keys; values carry the
    // original index, so equality of the full record sequences proves
    // the streamed cursors follow the exact augmented merge order of
    // the in-memory Merge Path kernel — not just "both are sorted".
    auto in_place = makeRecords(30'000, Distribution::FewDistinct);
    const auto original = in_place;

    const StreamEngine<Record> engine(smallOptions());
    chunkSort(smallOptions(), in_place);

    StreamStats stats;
    const auto streamed = streamSort(engine, original, &stats);
    EXPECT_EQ(streamed, in_place);

    // 30 chunk runs at fan-in 4 need 3 passes (30 -> 8 -> 2 -> 1);
    // phase 1 spills n records, every non-final pass another n, and
    // every pass reads n back.  Writes are exact for any thread
    // count; reads gain a little splitter-probe traffic when the
    // final pass runs sliced, so they are only bounded here (the
    // serial engine's reads are exact — see the accounting test).
    EXPECT_EQ(stats.effectiveEll, 4u);
    EXPECT_EQ(stats.mergePasses, 3u);
    const std::uint64_t n_bytes = 30'000u * sizeof(Record);
    EXPECT_EQ(stats.spillBytesWritten, n_bytes * stats.mergePasses);
    EXPECT_GE(stats.spillBytesRead, n_bytes * stats.mergePasses);
    EXPECT_LT(stats.spillBytesRead,
              n_bytes * stats.mergePasses + n_bytes / 10);
}

TEST(StreamEngine, DuplicateKeyRunsMergeInStableOrder)
{
    // A stable configuration: phase 1 merges each 64-record chunk
    // from unit runs in one 64-way group, and phase 2 merges all 64
    // chunk runs, in chunk order, in one pass.  Every merge takes ties
    // in (key, input index, position) order, so the output must equal
    // std::stable_sort of the input, an oracle that shares no code
    // with the merge kernel.  Duplicate keys flood every merge with
    // ties, and 3-record batches put run-cursor batch edges inside
    // the tied stretches.
    for (const Distribution dist :
         {Distribution::FewDistinct, Distribution::AllEqual}) {
        for (const unsigned threads : {1U, 3U}) {
            StreamEngine<Record>::Options opt;
            opt.presortRun = 1;
            opt.phase1Ell = 64;
            opt.phase2Ell = 64;
            opt.chunkRecords = 64;
            opt.batchRecords = 3;
            opt.bufferBudgetBytes = 1024 * 3 * sizeof(Record);
            opt.threads = threads;
            const auto data = makeRecords(64 * 64, dist);
            auto want = data;
            std::stable_sort(want.begin(), want.end());
            StreamStats stats;
            EXPECT_EQ(streamSort(StreamEngine<Record>(opt), data,
                                 &stats),
                      want)
                << "threads " << threads;
            EXPECT_EQ(stats.effectiveEll, 64U);
            EXPECT_EQ(stats.mergePasses, 1U);
        }
    }
}

TEST(StreamEngine, SerialStreamSpillAccountingIsExact)
{
    // threads = 1 forces one lane and a serial final pass: no
    // splitter probes, so spill traffic is exactly one full round
    // trip per merge pass.
    auto opt = smallOptions();
    opt.threads = 1;
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(30'000, Distribution::FewDistinct);
    StreamStats stats;
    streamSort(engine, data, &stats);
    EXPECT_EQ(stats.concurrentGroups, 1u);
    EXPECT_EQ(stats.finalSlices, 1u);
    EXPECT_EQ(stats.mergePasses, 3u);
    const std::uint64_t n_bytes = 30'000u * sizeof(Record);
    EXPECT_EQ(stats.spillBytesWritten, n_bytes * stats.mergePasses);
    EXPECT_EQ(stats.spillBytesRead, n_bytes * stats.mergePasses);
}

/** Heavy skew: 90% of the keys collide on one hot value, the rest
 *  rise monotonically — adversarial for splitter balance. */
std::vector<Record>
makeSkewedRecords(std::uint64_t n)
{
    std::vector<Record> data(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key = (i % 10 != 0) ? 5 : 5 + i;
        data[i] = Record{key, i};
    }
    return data;
}

TEST(StreamEngine, ParallelStreamIsByteIdenticalAcrossThreadCounts)
{
    // The tentpole invariant: the streamed sort emits the identical
    // byte sequence for any thread count — concurrent non-final
    // groups and the splitter-partitioned final pass included —
    // even under equal-key floods where only the augmented (key,
    // run index, position) order disambiguates.
    std::vector<std::vector<Record>> inputs;
    inputs.push_back(makeRecords(30'000, Distribution::FewDistinct));
    inputs.push_back(makeRecords(30'000, Distribution::AllEqual));
    inputs.push_back(makeRecords(30'000, Distribution::UniformRandom));
    inputs.push_back(makeSkewedRecords(30'000));

    for (const auto &data : inputs) {
        auto in_place = data;
        auto opt = smallOptions();
        opt.threads = 1;
        chunkSort(opt, in_place);

        for (const unsigned threads : {1u, 2u, 8u}) {
            opt.threads = threads;
            if (threads >= 2) {
                auto in_memory = data;
                chunkSort(opt, in_memory);
                ASSERT_EQ(in_memory, in_place)
                    << "thread count " << threads
                    << " changed the in-memory output bytes";
            }
            const StreamEngine<Record> engine(opt);
            StreamStats stats;
            const auto streamed = streamSort(engine, data, &stats);
            ASSERT_EQ(streamed, in_place)
                << "thread count " << threads
                << " changed the output bytes";
            if (threads >= 2) {
                EXPECT_GE(stats.concurrentGroups, 2u);
                EXPECT_GE(stats.finalSlices, 2u);
            }
        }
    }
}

TEST(StreamEngine, SingletonGroupMergesThroughOneLeafTree)
{
    // 3 runs at fan-in 2 leave a 1-member group; it merges like any
    // other group (cursor, 1-leaf tree, writer), with the same
    // moved-records accounting as the in-memory sort (which charges
    // every pass its full total).
    auto opt = smallOptions();
    opt.phase2Ell = 2;
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(3'000, Distribution::UniformRandom);
    auto in_place = data;
    const StreamStats mem = chunkSort(opt, in_place);

    StreamStats stats;
    const auto streamed = streamSort(engine, data, &stats);
    EXPECT_EQ(streamed, in_place);
    EXPECT_EQ(stats.phase1Chunks, 3u);
    EXPECT_EQ(stats.mergePasses, 2u); // 3 -> 2 -> 1
    EXPECT_EQ(stats.recordsMoved, mem.recordsMoved);
}

TEST(StreamEngine, SingleChunkFinalPassIsSliced)
{
    // One chunk spills one run, so phase 2 is a single-run final
    // pass; it is cut into slices like any other final pass.
    const auto data = makeRecords(4'000, Distribution::FewDistinct);
    for (const unsigned threads : {1u, 4u}) {
        auto opt = smallOptions();
        opt.chunkRecords = 4'000;
        opt.threads = threads;
        const StreamEngine<Record> engine(opt);

        auto in_place = data;
        chunkSort(opt, in_place);

        StreamStats stats;
        const auto streamed = streamSort(engine, data, &stats);
        EXPECT_EQ(streamed, in_place) << threads << " threads";
        EXPECT_EQ(stats.phase1Chunks, 1u);
        EXPECT_EQ(stats.mergePasses, 1u);
        if (threads == 1)
            EXPECT_EQ(stats.finalSlices, 1u);
        else
            EXPECT_GE(stats.finalSlices, 2u);
    }
}

TEST(StreamEngine, BudgetAdmittingOneLaneFallsBackToSerial)
{
    // 10 buffers hold exactly one fan-in-4 lane (2*4 + 2); the shape
    // derivation must admit a single lane no matter how many threads
    // were requested, and the output must not change.
    auto opt = smallOptions();
    opt.bufferBudgetBytes = 10 * opt.batchRecords * sizeof(Record);
    opt.threads = 8;
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(20'000, Distribution::FewDistinct);
    auto in_place = data;
    chunkSort(opt, in_place);

    StreamStats stats;
    const auto streamed = streamSort(engine, data, &stats);
    EXPECT_EQ(streamed, in_place);
    EXPECT_EQ(stats.effectiveEll, 4u);
    EXPECT_EQ(stats.concurrentGroups, 1u);
    EXPECT_EQ(stats.finalSlices, 1u);
}

TEST(StreamEngine, PoolPeakStaysWithinTheBudget)
{
    auto opt = smallOptions();
    opt.threads = 8;
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    StreamStats stats;
    streamSort(engine, data, &stats);
    EXPECT_GT(stats.bufferPoolPeakBytes, 0u);
    EXPECT_LE(stats.bufferPoolPeakBytes, stats.bufferPoolBytes);
}

TEST(StreamEngine, EmptySourceProducesEmptyOutput)
{
    const StreamEngine<Record> engine(smallOptions());
    StreamStats stats;
    const auto out = streamSort(engine, {}, &stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.recordsIn, 0u);
    EXPECT_EQ(stats.mergePasses, 0u);
    EXPECT_EQ(stats.spillBytesWritten, 0u);
}

TEST(StreamEngine, SingleRunStreamsStraightToTheSink)
{
    // Fewer records than one chunk: phase 1 produces a single run and
    // the one merge "pass" is a streamed copy into the sink.
    const auto data = makeRecords(500, Distribution::Reverse);
    const StreamEngine<Record> engine(smallOptions());
    StreamStats stats;
    const auto out = streamSort(engine, data, &stats);

    auto expected = data;
    chunkSort(smallOptions(), expected);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(stats.phase1Chunks, 1u);
    EXPECT_EQ(stats.mergePasses, 1u);
}

TEST(StreamEngine, RunCountExactlyEllMergesInOnePass)
{
    const auto data = makeRecords(4000, Distribution::UniformRandom);
    const StreamEngine<Record> engine(smallOptions());
    StreamStats stats;
    const auto out = streamSort(engine, data, &stats);

    auto expected = data;
    chunkSort(smallOptions(), expected);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(stats.phase1Chunks, 4u); // exactly ell runs
    EXPECT_EQ(stats.mergePasses, 1u);  // one group, straight to sink
}

TEST(StreamEngine, FanInIsCappedByTheBufferBudget)
{
    auto opt = smallOptions();
    opt.phase2Ell = 16;
    // Room for exactly 10 buffers: 2 for write-back, 2 per cursor ->
    // fan-in 4 despite the requested 16.
    opt.bufferBudgetBytes = 10 * opt.batchRecords * sizeof(Record);
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(20'000, Distribution::UniformRandom);
    StreamStats stats;
    const auto out = streamSort(engine, data, &stats);
    EXPECT_EQ(stats.effectiveEll, 4u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                               [](const Record &a, const Record &b) {
                                   return a.key < b.key;
                               }));
    EXPECT_EQ(out.size(), data.size());
}

TEST(StreamEngine, BudgetSmallerThanOneBatchFailsLoudly)
{
    auto opt = smallOptions();
    opt.batchRecords = 4096;
    opt.bufferBudgetBytes = 1024; // less than one batch buffer
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(100, Distribution::UniformRandom);
    EXPECT_THROW(streamSort(engine, data), ContractViolation);
}

TEST(StreamEngine, BudgetBelowTwoWayMergeFailsLoudly)
{
    auto opt = smallOptions();
    // Five buffers fit — one short of the 2-cursor + write-back
    // minimum.  Must throw up front, not deadlock in acquire().
    opt.bufferBudgetBytes = 5 * opt.batchRecords * sizeof(Record);
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(100, Distribution::UniformRandom);
    EXPECT_THROW(streamSort(engine, data), ContractViolation);
}

/** Run @p sort, which must throw a ContractViolation, and return its
 *  what().  The engine reports a leaked pool buffer as a
 *  ContractViolation too, so callers check the text. */
template <typename Fn>
std::string
contractViolationText(Fn &&sort)
{
    try {
        sort();
    } catch (const ContractViolation &e) {
        return e.what();
    }
    ADD_FAILURE() << "no ContractViolation thrown";
    return "";
}

TEST(StreamEngine, TerminalRecordInTheStreamIsRejected)
{
    auto data = makeRecords(2000, Distribution::UniformRandom);
    data[1234] = Record::terminal();
    const StreamEngine<Record> engine(smallOptions());
    const std::string msg =
        contractViolationText([&] { streamSort(engine, data); });
    EXPECT_NE(msg.find("input record 1234 is the reserved all-zero "
                       "terminal record"),
              std::string::npos)
        << msg;
}

TEST(StreamEngine, SourceEndingEarlyFailsLoudly)
{
    /** A source that claims more records than it can deliver. */
    class ShortSource : public io::RecordSource<Record>
    {
      public:
        ShortSource(std::uint64_t declared, std::uint64_t delivered)
            : declared_(declared), left_(delivered)
        {
        }

        std::uint64_t totalRecords() const override { return declared_; }
        std::uint64_t
        read(Record *dst, std::uint64_t max) override
        {
            const std::uint64_t n = std::min<std::uint64_t>(max, left_);
            for (std::uint64_t i = 0; i < n; ++i)
                dst[i] = Record{i + 1, i};
            left_ -= n;
            return n;
        }

      private:
        std::uint64_t declared_;
        std::uint64_t left_;
    };

    // With 1000-record chunks, the 1000-record source fails in its
    // only chunk.  The 5000-record one fails in chunk 3, while the
    // sorter or the spiller may hold the other ring buffer.
    struct Case
    {
        std::uint64_t declared;
        std::uint64_t delivered;
    };
    for (const Case c : {Case{1000, 700}, Case{5000, 3500}}) {
        for (const unsigned threads : {1u, 4u}) {
            ShortSource source(c.declared, c.delivered);
            std::vector<Record> out;
            io::MemorySink<Record> sink(out);
            io::FileRunStore<Record> front;
            io::FileRunStore<Record> back;
            auto opt = smallOptions();
            opt.threads = threads;
            const StreamEngine<Record> engine(opt);
            const std::string msg = contractViolationText(
                [&] { engine.sortStream(source, sink, front, back); });
            const std::string want =
                "record source ended at record " +
                std::to_string(c.delivered) + " but declared " +
                std::to_string(c.declared);
            EXPECT_NE(msg.find(want), std::string::npos)
                << "threads " << threads << ": " << msg;
        }
    }
}

} // namespace
} // namespace bonsai::sorter
