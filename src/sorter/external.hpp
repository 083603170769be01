/**
 * @file
 * Out-of-core two-phase streaming sort engine (paper Section IV-C/D)
 * — the facade over the decomposed streaming-sort modules:
 *
 *   sorter/stream_stats.hpp   unified telemetry struct
 *   sorter/double_buffer.hpp  the double-buffered batch transfer
 *   sorter/run_cursor.hpp     prefetching run cursor (2 pool buffers)
 *   sorter/stream_writer.hpp  double-buffered batch writer
 *   sorter/tournament.hpp     the shared merge-tree kernel
 *   sorter/merge_plan.hpp     Equation-10 shape, lanes, stall tally
 *   sorter/splitter.hpp       out-of-core Merge Path boundary search
 *   sorter/phase1_spill.hpp   phase 1: sort loop on the double buffer
 *   sorter/phase2_merge.hpp   phase 2 merge passes and the final pass
 *
 * Phase 1 streams fixed-size chunks from a RecordSource through a
 * DoubleBuffer of two chunk buffers: the caller sorts the front chunk
 * in place with the BehavioralSorter while one transfer on lane 0's
 * writer spills the previous chunk to a RunStore and loads the next
 * one into the back buffer (the paper's double-buffered data loader,
 * writ large).
 *
 * Phase 2 runs ell-way merge passes that ping-pong runs between two
 * stores; every pass is one full storage round trip (the paper's SSD
 * round-trip cost unit).  Batch size b and the buffer budget mirror
 * Equation 10's b * ell on-chip buffer bound: fan-in AND the number
 * of concurrently merging lanes are jointly derived from the budget
 * (b * (2 ell + 2) * W buffers), so resident memory never exceeds
 * it.  The final pass is splitter-partitioned into positioned sink
 * segments — byte-identical to the serial tournament for any thread
 * count, including equal-key floods.
 *
 * The engine only streams.  Its in-memory counterpart is sortChunks
 * (sorter/behavioral.hpp): both run the same StagePlan groups in the
 * same merge-tree order, so a streamed sort is byte-identical to the
 * in-memory sort of the same input whenever the buffer budget admits
 * the planned fan-in.
 *
 * Every streamed sort builds and owns its BufferPool, so it alone can
 * (and on every exit does) check that the pool came back whole.
 */

#ifndef BONSAI_SORTER_EXTERNAL_HPP
#define BONSAI_SORTER_EXTERNAL_HPP

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/merge_plan.hpp"
#include "sorter/phase1_spill.hpp"
#include "sorter/phase2_merge.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

/** The streaming two-phase sort engine. */
template <typename RecordT>
class StreamEngine
{
  public:
    struct Options
    {
        unsigned phase1Ell = 16;  ///< chunk-sort merge fan-in
        unsigned phase2Ell = 16;  ///< run-merge fan-in (pre-budget)
        std::uint64_t presortRun = 16;
        std::uint64_t chunkRecords = 0; ///< 0 = one chunk
        std::uint64_t batchRecords = 1 << 14;   ///< b, in records
        std::uint64_t bufferBudgetBytes = 64ULL << 20;
        unsigned threads = 1;
    };

    using DurableOptions = sorter::DurableOptions;

    explicit StreamEngine(Options opt) : opt_(opt)
    {
        BONSAI_REQUIRE(opt_.phase1Ell >= 2 && opt_.phase2Ell >= 2,
                       "merge fan-in must be at least 2");
    }

    /**
     * Fully streamed sort: @p source -> spilled runs in @p front /
     * @p back -> merged output into @p sink.  Resident memory is
     * bounded by two chunk buffers (plus one chunk of sort scratch)
     * and the batch buffer pool, independent of the dataset size.
     *
     * Failure contract: any I/O or task failure — in a lane's
     * background worker, a prefetch cursor, a splitter probe, the
     * sink — unwinds to exactly one std::runtime_error thrown from
     * here.  First error wins: an error observed while quiescing
     * behind it is dropped, and a cleanup error on an otherwise clean
     * path fails the sort.  Every exit, failed or clean, first checks
     * that all pool buffers came back: a leak throws a
     * ContractViolation instead, in every build type.
     */
    StreamStats
    sortStream(io::RecordSource<RecordT> &source,
               io::RecordSink<RecordT> &sink,
               io::RunStore<RecordT> &front,
               io::RunStore<RecordT> &back) const
    {
        return sortStreamImpl(source, sink, front, back, nullptr);
    }

    /**
     * Durable (checkpointed) sort: spills live in named files under
     * @p durable.dir next to a versioned, checksummed job manifest
     * committed after every phase-1 chunk and every non-final merge
     * pass.  A re-invocation after a crash resumes from the last
     * committed unit of work (per @p durable.policy) and produces
     * output byte-identical to an uninterrupted run; the resume
     * telemetry lands in StreamStats::resumedChunks / resumedPasses /
     * manifestCommits / resumeFallback.
     *
     * The caller recreates @p source and @p sink on every attempt —
     * the sink is truncated and fully rewritten by the (never
     * journaled) final pass.  Artifacts stay in the job directory
     * after success; callers that own the directory lifecycle (the
     * file_sorter tool) delete them once the output is durable.
     */
    StreamStats
    sortStreamDurable(io::RecordSource<RecordT> &source,
                      io::RecordSink<RecordT> &sink,
                      const DurableOptions &durable) const
    {
        // An empty sort has no chunk geometry to journal: leave the
        // job directory untouched.
        if (source.totalRecords() == 0)
            return finishEmpty(sink);
        Checkpointer<RecordT> ckpt(durable,
                                   manifestParams(source.totalRecords()));
        return sortStreamImpl(source, sink, ckpt.front(), ckpt.back(),
                              &ckpt);
    }

  private:
    /** The one streamed-sort body; @p ckpt == nullptr runs it
     *  unjournaled (the classic anonymous-spill path). */
    StreamStats
    sortStreamImpl(io::RecordSource<RecordT> &source,
                   io::RecordSink<RecordT> &sink,
                   io::RunStore<RecordT> &front,
                   io::RunStore<RecordT> &back,
                   Checkpointer<RecordT> *ckpt) const
    {
        // Construct no pool: an empty sort succeeds under any budget,
        // even one too small for a single batch buffer.
        if (source.totalRecords() == 0)
            return finishEmpty(sink);
        StreamStats stats;
        stats.recordsIn = source.totalRecords();
        stats.batchRecords = opt_.batchRecords;
        // Declared first so it outlives every lane, cursor and worker
        // that borrows its buffers.
        io::BufferPool<RecordT> bufs(opt_.batchRecords,
                                     opt_.bufferBudgetBytes);
        ThreadPool pool(opt_.threads);
        stats.bufferPoolBytes = bufs.budgetBytes();
        const Phase2Shape shape = phase2Shape(
            bufs.buffers(), bufs.budgetBytes(), opt_.phase2Ell,
            opt_.threads);
        stats.effectiveEll = shape.ell;
        stats.concurrentGroups = shape.lanes;
        // One reader/writer worker pair per lane, so concurrent
        // groups never serialize their prefetches behind one worker.
        std::vector<std::unique_ptr<Lane>> lanes;
        lanes.reserve(shape.lanes);
        for (unsigned i = 0; i < shape.lanes; ++i)
            lanes.push_back(std::make_unique<Lane>());

        // Sort-wide first-error latch: every phase-1 transfer, cursor,
        // writer and quiesce path records into this one trap, so the
        // caller sees exactly one exception no matter how many lanes
        // failed.
        ErrorTrap trap;
        try {
            if (ckpt == nullptr || !ckpt->phase1Complete()) {
                const BehavioralSorter<RecordT> phase1(
                    opt_.phase1Ell, opt_.presortRun, opt_.threads);
                // Lane 0's writer is idle until phase 2: phase 1
                // posts its chunk loads and spills there.
                Phase1Spiller<RecordT>::run(
                    source, front, pool, lanes.front()->writer, phase1,
                    chunkLength(stats.recordsIn), stats, trap, ckpt);
            } else {
                // Every chunk is journaled: phase 1 is pure replayed
                // history, with its runs already installed on the
                // journal's current store.
                stats.phase1Chunks = ckpt->chunksDone();
            }
            Phase2Merger<RecordT> merger(bufs, lanes, pool, trap,
                                         shape.ell);
            merger.run(front, back, sink, stats, ckpt);
        } catch (...) {
            trap.store(std::current_exception());
        }

        // Telemetry is valid on success and failure alike.
        stats.spillBytesWritten =
            front.bytesWritten() + back.bytesWritten();
        stats.spillBytesRead = front.bytesRead() + back.bytesRead();
        stats.bufferPoolPeakBytes = bufs.peakOutstanding() *
            bufs.batchRecords() * sizeof(RecordT);
        io::IoRetryStats retries = front.retryStats();
        retries += back.retryStats();
        stats.ioTransientRetries = retries.transientRetries;
        stats.ioEintrRetries = retries.eintrRetries;
        stats.ioShortTransfers = retries.shortTransfers;
        if (ckpt != nullptr) {
            stats.resumedChunks = ckpt->resumedChunks();
            stats.resumedPasses = ckpt->resumedPasses();
            stats.manifestCommits = ckpt->commits();
            stats.resumeFallback = ckpt->fallbackReason();
        }
        // Checked before the rethrow so a failed sort proves its
        // unwind returned every buffer too; a leak outranks the I/O
        // error as a ContractViolation, which a caller catching
        // std::runtime_error cannot swallow.
        const std::uint64_t leaked = bufs.outstanding();
        if (leaked != 0)
            contracts::fail("postcondition", "bufs.outstanding() == 0",
                            __FILE__, __LINE__,
                            "buffer pool has " + std::to_string(leaked) +
                                " outstanding buffers after a streamed "
                                "sort");
        trap.rethrowIfSet();
        return stats;
    }

    /** The whole of an empty streamed sort: finish the sink. */
    StreamStats
    finishEmpty(io::RecordSink<RecordT> &sink) const
    {
        StreamStats stats;
        stats.batchRecords = opt_.batchRecords;
        sink.finish();
        return stats;
    }

    std::uint64_t
    chunkLength(std::uint64_t total) const
    {
        if (opt_.chunkRecords == 0)
            return total;
        return std::min<std::uint64_t>(opt_.chunkRecords, total);
    }

    /** The parameter echo a job manifest carries: everything chunk
     *  geometry and pass structure are a function of, so a resume
     *  against a changed request is refused instead of corrupting. */
    io::ManifestParams
    manifestParams(std::uint64_t records_in) const
    {
        io::ManifestParams p;
        p.recordBytes = sizeof(RecordT);
        p.recordsIn = records_in;
        p.chunkRecords = chunkLength(records_in);
        p.batchRecords = opt_.batchRecords;
        p.phase1Ell = opt_.phase1Ell;
        p.phase2Ell = opt_.phase2Ell;
        p.bufferBudgetBytes = opt_.bufferBudgetBytes;
        return p;
    }

    Options opt_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_EXTERNAL_HPP
