/**
 * @file
 * Phase 1 of the out-of-core sort as one loop on the calling thread,
 * driving a DoubleBuffer over two chunk buffers:
 *
 *   step k:  back buffer   spill chunk k-2, then load chunk k
 *            front buffer  sort chunk k-1 in place (the caller)
 *
 * Each step waits for the transfer in flight and swaps the buffers,
 * then posts one transfer on the back buffer: spill the chunk sorted
 * last step to the RunStore (and journal it), then load the next
 * chunk from the RecordSource into the same buffer.  Meanwhile the
 * caller sorts the front chunk with the BehavioralSorter on the
 * engine's compute pool.  A final spill-only step and a wait close
 * the phase.  Resident memory keeps the engine's historical bound —
 * two chunk buffers (one when a single chunk covers the input) plus
 * sort scratch — while the spill of chunk k and the load of chunk
 * k+2 overlap the sort of chunk k+1 (the paper's double-buffered data
 * loader, writ large).
 *
 * The transfers run in step order on one BackgroundWorker (lane 0's,
 * idle until phase 2), so runs land at the same offsets, in the same
 * order, with the same "phase-1 spill of chunk N" error contexts as a
 * serial read-sort-spill loop, and a buffer is reloaded only after
 * its chunk is spilled and committed.  A failing transfer (a short
 * source, a terminal record in the input, a spill-device error)
 * surfaces from the next step; a failing sort leaves the transfer in
 * flight to the DoubleBuffer's destructor.
 */

#ifndef BONSAI_SORTER_PHASE1_SPILL_HPP
#define BONSAI_SORTER_PHASE1_SPILL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/double_buffer.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class Phase1Spiller
{
  public:
    /**
     * Stream chunks of @p chunk records from @p source, sort each in
     * place with @p sorter on @p compute, and spill the sorted runs
     * to @p store, with every load and spill posted to @p worker.
     * Fills the phase-1 fields of @p stats.  A failing load, sort or
     * spill throws from here; a transfer error with no consumer left
     * lands in @p trap as a secondary error.
     *
     * With a @p ckpt the phase resumes: chunks the journal already
     * records are skipped in the source (never re-read, never
     * re-sorted), their runs are adopted, and every newly spilled
     * chunk is committed to the journal before its buffer reloads.
     */
    static void
    run(io::RecordSource<RecordT> &source,
        io::RunStore<RecordT> &store, ThreadPool &compute,
        BackgroundWorker &worker,
        const BehavioralSorter<RecordT> &sorter, std::uint64_t chunk,
        StreamStats &stats, ErrorTrap &trap,
        Checkpointer<RecordT> *ckpt = nullptr)
    {
        const auto t1 = std::chrono::steady_clock::now();
        const std::uint64_t total = source.totalRecords();
        const std::uint64_t start =
            ckpt ? ckpt->chunksDone() * chunk : 0;
        if (start > 0) {
            // Input already spilled by the previous attempt: skip it
            // (O(1) on positioned sources).  A source shorter than
            // the journaled prefix is not the input the checkpoint
            // was taken against — fail in every build type.
            const std::uint64_t skipped = source.skip(start);
            if (skipped != start)
                contracts::fail(
                    "precondition", "source.skip(start) == start",
                    __FILE__, __LINE__,
                    "record source ended after " +
                        std::to_string(skipped) + " of the " +
                        std::to_string(start) +
                        " records the checkpoint already spilled");
        }

        // The resumed attempt's runs come first (in chunk order), so
        // the final run list covers the whole input.
        std::vector<RunSpan> runs;
        if (ckpt && ckpt->resumed())
            runs = store.runs();
        // The second buffer stays empty when a single chunk covers
        // the remaining input (the historical memory bound): the
        // first step loads into the first one.
        DoubleBuffer<std::vector<RecordT>> buf(
            std::vector<RecordT>(chunk),
            std::vector<RecordT>(chunk < total - start ? chunk : 0),
            worker, trap);
        std::uint64_t moved = 0;
        RunSpan sorted{start, 0}; // sorted last step, spilled this one
        RunSpan loaded{start, 0}; // loaded last step, sorted this one
        do {
            const std::uint64_t next = loaded.offset + loaded.length;
            const RunSpan load{next,
                               std::min<std::uint64_t>(chunk,
                                                       total - next)};
            buf.step(sorted.length + load.length,
                     [&store, &source, ckpt, chunk, total, spilled = sorted,
                      load](RecordT *b, std::uint64_t) {
                         spill(store, ckpt, b, spilled, chunk);
                         fill(source, b, load, total);
                     });
            if (sorted.length > 0)
                runs.push_back(sorted);
            sorted = loaded; // the step swapped it to the front
            loaded = load;
            if (sorted.length > 0) {
                const std::span<RecordT> keys(buf.front(), sorted.length);
                moved += sorter.sort(keys, compute).recordsMoved;
            }
        } while (sorted.length > 0 || loaded.length > 0);
        buf.wait();

        stats.phase1RecordsMoved += moved;
        stats.recordsMoved += moved;
        // Blocked on the buffer in flight is phase 1's
        // blocked-on-write-back time (the load rides behind the
        // spill in the same transfer).
        stats.writeStallSeconds += buf.stallSeconds();
        // Durability point: a spill the device only buffered is not a
        // spill phase 2 can trust.
        store.flush("phase-1 spill flush");
        stats.phase1Chunks = runs.size();
        store.setRuns(std::move(runs));
        stats.phase1Seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t1)
                .count();
    }

  private:
    /** Write the sorted chunk @p run from @p src to @p store, then
     *  journal it before its buffer reloads: once committed, a crash
     *  anywhere later never redoes it.  An empty @p run is a no-op. */
    static void
    spill(io::RunStore<RecordT> &store, Checkpointer<RecordT> *ckpt,
          const RecordT *src, RunSpan run, std::uint64_t chunk)
    {
        if (run.length == 0)
            return;
        const std::string ctx =
            "phase-1 spill of chunk " + std::to_string(run.offset / chunk);
        store.writeAt(run.offset, src, run.length, ctx.c_str());
        if (ckpt != nullptr)
            ckpt->commitChunk(run);
    }

    /** Read the records of @p c from @p source into @p dst, rejecting
     *  a short source and the terminal record. */
    static void
    fill(io::RecordSource<RecordT> &source, RecordT *dst, RunSpan c,
         std::uint64_t total)
    {
        std::uint64_t got = 0;
        while (got < c.length) {
            const std::uint64_t r =
                source.read(dst + got, c.length - got);
            if (r == 0)
                contracts::fail("precondition", "source.read() != 0",
                                __FILE__, __LINE__,
                                "record source ended at record " +
                                    std::to_string(c.offset + got) +
                                    " but declared " +
                                    std::to_string(total));
            io::requireNoTerminals(dst + got, r, c.offset + got);
            got += r;
        }
    }
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PHASE1_SPILL_HPP
