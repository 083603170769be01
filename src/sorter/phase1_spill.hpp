/**
 * @file
 * Phase 1 of the out-of-core sort as three loops on three queues:
 *
 *   chunk reader  ->  chunk sorter  ->  spiller
 *        ^                                  |
 *        +------- free chunk-buffer ring ---+
 *
 * The reader streams fixed-size chunks from the RecordSource into a
 * recycled chunk buffer, the sorter sorts each chunk *in place* with
 * the BehavioralSorter on the engine's compute pool, and the spiller
 * writes the sorted run to the RunStore and returns the buffer to the
 * ring.  The ring is seeded with two chunk buffers (one when the
 * whole input is a single chunk), so resident memory keeps the
 * engine's historical bound — two chunk buffers plus sort scratch —
 * while the spill write-back of chunk k overlaps the load and sort of
 * chunk k+1 (the paper's double-buffered data loader, writ large).
 *
 * Each loop runs on a thread of its own, and the edges are
 * pipeline::BoundedQueues: the first failing loop (a short-read
 * contract, a terminal record in the input, a spill-device error)
 * becomes the sort's primary error and poisons all three queues; the
 * other loops unwind on PipelineAborted, which is not an error of its
 * own.  FIFO edges with a single producer and consumer per queue
 * keep chunks in input order, so runs land at the same offsets, in
 * the same order, with the same "phase-1 spill of chunk N" error
 * contexts as a serial read-sort-spill loop.
 */

#ifndef BONSAI_SORTER_PHASE1_SPILL_HPP
#define BONSAI_SORTER_PHASE1_SPILL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "pipeline/queue.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class Phase1Spiller
{
  public:
    /**
     * Stream chunks of @p chunk records from @p source in reads of
     * @p batch records, sort each in place with @p sorter on
     * @p compute, and spill the sorted runs to @p store.
     * Fills the phase-1 fields of @p stats; the primary error of a
     * failing run lands in @p trap and is rethrown from here once all
     * three loops have returned.
     *
     * With a @p ckpt the phase resumes: chunks the journal already
     * records are skipped in the source (never re-read, never
     * re-sorted), their runs are adopted, and every newly spilled
     * chunk is committed to the journal before the next one starts.
     */
    static void
    run(io::RecordSource<RecordT> &source,
        io::RunStore<RecordT> &store, ThreadPool &compute,
        const BehavioralSorter<RecordT> &sorter, std::uint64_t batch,
        std::uint64_t chunk, StreamStats &stats, ErrorTrap &trap,
        Checkpointer<RecordT> *ckpt = nullptr)
    {
        const auto t1 = std::chrono::steady_clock::now();
        const std::uint64_t total = source.totalRecords();
        const std::uint64_t base_index = ckpt ? ckpt->chunksDone() : 0;
        const std::uint64_t start = base_index * chunk;
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

        pipeline::BoundedQueue<Chunk> free(2);
        pipeline::BoundedQueue<Chunk> loaded(2);
        pipeline::BoundedQueue<Chunk> sorted(2);
        // Seed the ring: one buffer when a single chunk covers the
        // remaining input, two otherwise (the historical memory
        // bound).
        {
            Chunk c;
            c.buf.resize(chunk);
            free.push(std::move(c));
            if (chunk < total - start) {
                Chunk d;
                d.buf.resize(chunk);
                free.push(std::move(d));
            }
        }

        // The resumed attempt's runs come first (in chunk order), so
        // the final run list covers the whole input.
        std::vector<RunSpan> runs;
        if (ckpt && ckpt->resumed())
            runs = store.runs();
        std::uint64_t moved = 0;
        // The reader starving on the buffer ring is phase 1's
        // blocked-on-write-back time: a buffer is missing exactly
        // while its previous spill has not landed.
        double ring_stall = 0.0;

        const auto read_chunks = [&] {
            std::uint64_t offset = start;
            std::uint64_t index = base_index;
            while (offset < total) {
                Chunk c = *free.pop(ring_stall);
                c.offset = offset;
                c.len = std::min<std::uint64_t>(chunk, total - offset);
                c.index = index++;
                fill(source, c, batch, total);
                offset += c.len;
                loaded.push(std::move(c));
            }
            loaded.close();
        };
        // The compute pool is a different pool than the loops' own,
        // so the in-place sort may parallelFor on it (nested
        // parallelism is only banned within one pool).
        const auto sort_chunks = [&] {
            double starved = 0.0;
            while (auto c = loaded.pop(starved)) {
                const std::span<RecordT> keys(c->buf.data(), c->len);
                moved += sorter.sort(keys, compute).recordsMoved;
                sorted.push(std::move(*c));
            }
            sorted.close();
        };
        const auto spill_chunks = [&] {
            double starved = 0.0;
            while (auto c = sorted.pop(starved)) {
                const std::string ctx =
                    "phase-1 spill of chunk " + std::to_string(c->index);
                store.writeAt(c->offset, c->buf.data(), c->len,
                              ctx.c_str());
                const RunSpan run{c->offset, c->len};
                runs.push_back(run);
                // Journal the chunk before its buffer recycles: once
                // committed, a crash anywhere later never redoes it.
                if (ckpt != nullptr)
                    ckpt->commitChunk(run);
                free.push(std::move(*c));
            }
        };

        // One thread per loop: a pool of width 3 hands each index to
        // its own thread (a thread only claims a second index after
        // its first loop returned), so a loop blocked on a queue
        // waits on a loop that runs already or that an idle pool
        // thread will claim.
        ThreadPool loops(3);
        loops.parallelFor(3, [&](std::uint64_t i) {
            try {
                if (i == 0)
                    read_chunks();
                else if (i == 1)
                    sort_chunks();
                else
                    spill_chunks();
            } catch (const pipeline::PipelineAborted &) {
                // Unwinding behind the primary error; absorbed.
            } catch (...) {
                trap.store(std::current_exception());
                free.poison();
                loaded.poison();
                sorted.poison();
            }
        });
        trap.rethrowIfSet();

        stats.phase1RecordsMoved += moved;
        stats.recordsMoved += moved;
        stats.writeStallSeconds += ring_stall;
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
    /** One chunk in flight: a recycled buffer plus its position. */
    struct Chunk
    {
        std::vector<RecordT> buf;
        std::uint64_t offset = 0;
        std::uint64_t len = 0;
        std::uint64_t index = 0;
    };

    /** Read @p c's records from @p source in batches of @p batch,
     *  rejecting a short source and the terminal record. */
    static void
    fill(io::RecordSource<RecordT> &source, Chunk &c,
         std::uint64_t batch, std::uint64_t total)
    {
        std::uint64_t got = 0;
        while (got < c.len) {
            const std::uint64_t r = source.read(
                c.buf.data() + got,
                std::min<std::uint64_t>(batch, c.len - got));
            if (r == 0)
                contracts::fail("precondition", "source.read() != 0",
                                __FILE__, __LINE__,
                                "record source ended at record " +
                                    std::to_string(c.offset + got) +
                                    " but declared " +
                                    std::to_string(total));
            io::requireNoTerminals(c.buf.data() + got, r,
                                   c.offset + got);
            got += r;
        }
    }
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PHASE1_SPILL_HPP
