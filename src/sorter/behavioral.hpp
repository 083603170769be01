/**
 * @file
 * Behavioral sorter: executes the AMT's exact multistage merge plan in
 * software (presort into 16-record runs with the bitonic network, then
 * ceil(log_ell(N/16)) stages of ell-way merges per the shared
 * StagePlan).  Produces buffers bit-identical to the cycle simulator
 * at a tiny fraction of the cost — used for GB-scale validation, the
 * large experiment sweeps, and live CPU comparisons.
 *
 * Threading model (docs/ARCHITECTURE.md "Software threading model"):
 * one persistent work-stealing ThreadPool lives for the whole sort.
 * Every stage is flattened into a list of (group, slice) merge tasks:
 * small groups are one task each, large groups are cut into disjoint
 * Merge Path slices, so both the many-small-group early stages and the
 * single-group final stage saturate all cores.  Output is byte-
 * identical for every thread count because slices follow the
 * (key, input index, position) total order the merge tree merges by.
 */

#ifndef BONSAI_SORTER_BEHAVIORAL_HPP
#define BONSAI_SORTER_BEHAVIORAL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "common/thread_pool.hpp"
#include "hw/bitonic.hpp"
#include "sorter/loser_tree.hpp"
#include "sorter/merge_path.hpp"
#include "sorter/stage_plan.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

/** Statistics from a behavioral sort. */
struct BehavioralStats
{
    unsigned stages = 0;
    std::uint64_t recordsMoved = 0; ///< total across stages
    std::vector<std::uint64_t> groupsPerStage;

    friend bool operator==(const BehavioralStats &,
                           const BehavioralStats &) = default;
};

template <typename RecordT>
class BehavioralSorter
{
  public:
    /** Groups below this size are not worth partitioning. */
    static constexpr std::uint64_t kMinSliceRecords = 4096;

    /**
     * @param ell Merge fan-in per stage.
     * @param presort_run Bitonic presorter run length (1 disables).
     * @param threads Worker threads shared by the group-level and
     *        intra-group (Merge Path) merge tasks; 1 = serial.
     */
    explicit BehavioralSorter(unsigned ell,
                              std::uint64_t presort_run = 16,
                              unsigned threads = 1)
        : ell_(ell), presortRun_(presort_run ? presort_run : 1),
          threads_(threads == 0 ? 1 : threads)
    {
    }

    unsigned threads() const { return threads_; }
    unsigned ell() const { return ell_; }

    /** Sort @p data in place; returns per-stage statistics. */
    BehavioralStats
    sort(std::vector<RecordT> &data) const
    {
        if (data.size() <= 1)
            return {};
        ThreadPool pool(threads_); // persists across all stages
        return mergeRuns(data, presort(data), pool);
    }

    /**
     * Merge the already-sorted @p runs of @p data in place through
     * StagePlan stages of this sorter's fan-in on @p pool — the stage
     * loop sort() runs after its presort, exposed so a chunked sort
     * (sortChunks) can merge its chunk runs at a second fan-in.
     */
    BehavioralStats
    mergeRuns(std::vector<RecordT> &data, std::vector<RunSpan> runs,
              ThreadPool &pool) const
    {
        BehavioralStats stats;
        if (runs.size() <= 1)
            return stats;
        std::vector<RecordT> scratch(data.size());
        if (mergeStages({data.data(), data.size()},
                        {scratch.data(), scratch.size()}, std::move(runs),
                        pool, stats))
            data = std::move(scratch);
        return stats;
    }

    /**
     * Sort a caller-owned range in place — phase 1 of both the
     * out-of-core engine and sortChunks sorts each chunk this way,
     * with no per-chunk copy round trip.  Scratch is internal; if the
     * stage ping-pong ends there, the result is copied back (at most
     * one extra pass).
     */
    BehavioralStats
    sort(std::span<RecordT> data, ThreadPool &pool) const
    {
        BehavioralStats stats;
        if (data.size() <= 1)
            return stats;
        std::vector<RecordT> scratch(data.size());
        if (mergeStages(data, {scratch.data(), scratch.size()},
                        presort(data), pool, stats))
            std::copy(scratch.begin(), scratch.end(), data.begin());
        return stats;
    }

    /**
     * Execute one merge stage of @p plan from @p src into @p dst on
     * @p pool.  Public so stage-level benchmarks (bench_ablation_
     * threads) reuse the exact scheduling the full sort uses.  Groups
     * write disjoint output runs and slices write disjoint sub-ranges,
     * so all tasks run concurrently; the result is byte-identical for
     * any pool width.
     */
    void
    runStage(const StagePlan &plan, std::span<const RecordT> src,
             std::span<RecordT> dst, ThreadPool &pool) const
    {
        const std::vector<RunSpan> out = plan.outputRuns();
        const std::uint64_t stage_total = plan.totalRecords();
        const unsigned width = pool.threads();

        // Slices reference their group's span list and Merge Path
        // bounds; nothing is copied per slice.
        struct Group
        {
            std::vector<std::span<const RecordT>> members;
            /** Slice cut vectors; empty = one full-extent slice. */
            std::vector<std::vector<std::uint64_t>> bounds;
        };
        struct SliceTask
        {
            const Group *group;
            unsigned slice;
            RecordT *out;
        };
        std::vector<Group> groups(plan.groups());
        std::vector<SliceTask> tasks;
        tasks.reserve(plan.groups());
        for (std::uint64_t g = 0; g < plan.groups(); ++g) {
            Group &group = groups[g];
            for (const RunSpan &run : plan.groupRuns(g))
                group.members.emplace_back(src.data() + run.offset,
                                           run.length);
            RecordT *base = dst.data() + out[g].offset;
            const unsigned slices =
                sliceCount(out[g].length, stage_total, width);
            if (slices <= 1) {
                tasks.push_back(SliceTask{&group, 0, base});
                continue;
            }
            group.bounds =
                MergePath<RecordT>(group.members).partition(slices);
            std::uint64_t rank = 0;
            for (unsigned t = 0; t < slices; ++t) {
                tasks.push_back(SliceTask{&group, t, base + rank});
                rank = out[g].length * (t + 1) / slices;
            }
        }

        pool.parallelFor(tasks.size(), [&](std::uint64_t i) {
            const SliceTask &task = tasks[i];
            const Group &group = *task.group;
            if (group.bounds.empty())
                mergeSlice(group.members, {}, {}, task.out);
            else
                mergeSlice(group.members, group.bounds[task.slice],
                           group.bounds[task.slice + 1], task.out);
        });
    }

  private:
    /**
     * The stage loop: ping-pong merge stages of the sorted @p runs
     * between @p data and @p scratch.  Returns true when the result
     * ended up in @p scratch (odd stage count), letting the vector
     * entry points move instead of copy.
     */
    bool
    mergeStages(std::span<RecordT> data, std::span<RecordT> scratch,
                std::vector<RunSpan> runs, ThreadPool &pool,
                BehavioralStats &stats) const
    {
        BONSAI_REQUIRE(scratch.size() >= data.size(),
                       "scratch must cover the data range");
        std::span<RecordT> src = data;
        std::span<RecordT> dst = scratch.first(data.size());
        bool in_scratch = false;
        while (runs.size() > 1) {
            StagePlan plan(std::move(runs), ell_);
            runStage(plan, src, dst, pool);
            runs = plan.outputRuns();
            stats.groupsPerStage.push_back(plan.groups());
            stats.recordsMoved += plan.totalRecords();
            ++stats.stages;
            std::swap(src, dst);
            in_scratch = !in_scratch;
        }
        return in_scratch;
    }

    /** Form initial sorted runs with the bitonic presorter network. */
    std::vector<RunSpan>
    presort(std::span<RecordT> data) const
    {
        std::vector<RunSpan> runs =
            chunkRuns(data.size(), presortRun_);
        if (presortRun_ == 1)
            return runs;
        for (const RunSpan &run : runs) {
            std::span<RecordT> chunk(data.data() + run.offset,
                                     run.length);
            if (hw::isPow2(run.length)) {
                hw::bitonicSortNetwork(chunk);
            } else {
                std::sort(chunk.begin(), chunk.end());
            }
        }
        return runs;
    }

    /**
     * Merge Path slices for a group of @p group_len records within a
     * stage of @p stage_total records: each group gets a share of the
     * pool proportional to its size, so a stage with G >= width groups
     * runs one task per group while the final single-group stage is
     * cut @p width ways.
     */
    static unsigned
    sliceCount(std::uint64_t group_len, std::uint64_t stage_total,
               unsigned width)
    {
        if (width <= 1 || group_len < kMinSliceRecords ||
            stage_total == 0)
            return 1;
        const std::uint64_t share =
            (group_len * width + stage_total - 1) / stage_total;
        return static_cast<unsigned>(
            std::min<std::uint64_t>(share ? share : 1, width));
    }

    /** Merge one slice (or whole group, when begin/end are empty). */
    static void
    mergeSlice(const std::vector<std::span<const RecordT>> &members,
               const std::vector<std::uint64_t> &begin,
               const std::vector<std::uint64_t> &end, RecordT *out)
    {
        if (members.empty())
            return;
        if (members.size() == 1) {
            const auto &m = members[0];
            if (begin.empty())
                std::copy(m.begin(), m.end(), out);
            else
                std::copy(m.begin() + begin[0], m.begin() + end[0],
                          out);
            return;
        }
        LoserTree<RecordT> tree(members, begin, end);
        while (!tree.done())
            *out++ = tree.pop();
    }

    unsigned ell_;
    std::uint64_t presortRun_;
    unsigned threads_;
};

/**
 * The in-memory two-phase sort (paper Section IV-C): @p phase1 sorts
 * each @p chunk_records-long chunk of @p data in place (0 = one
 * chunk), then @p phase2 merges the chunk runs with mergeRuns, all on
 * @p pool.  Byte-identical to StreamEngine::sortStream with the same
 * fan-ins, presort and chunk length whenever the engine's buffer
 * budget admits phase 2's fan-in: both run the same StagePlan groups
 * in the same merge-tree order.  Reports the telemetry it has
 * — chunks, records moved per phase, merge passes, phase times and
 * the phase-2 fan-in; the pool and batch fields stay 0.
 */
template <typename RecordT>
StreamStats
sortChunks(std::vector<RecordT> &data, std::uint64_t chunk_records,
           const BehavioralSorter<RecordT> &phase1,
           const BehavioralSorter<RecordT> &phase2, ThreadPool &pool)
{
    using Clock = std::chrono::steady_clock;
    StreamStats stats;
    stats.recordsIn = data.size();
    stats.effectiveEll = phase2.ell();
    if (data.size() <= 1)
        return stats;

    const auto t1 = Clock::now();
    const std::uint64_t chunk =
        chunk_records != 0 ? chunk_records : data.size();
    std::vector<RunSpan> runs;
    for (std::uint64_t lo = 0; lo < data.size(); lo += chunk) {
        const std::uint64_t len =
            std::min<std::uint64_t>(chunk, data.size() - lo);
        stats.phase1RecordsMoved +=
            phase1.sort(std::span<RecordT>(data.data() + lo, len), pool)
                .recordsMoved;
        runs.push_back(RunSpan{lo, len});
    }
    stats.phase1Chunks = runs.size();
    const auto t2 = Clock::now();
    stats.phase1Seconds = std::chrono::duration<double>(t2 - t1).count();

    const BehavioralStats merged =
        phase2.mergeRuns(data, std::move(runs), pool);
    stats.mergePasses = merged.stages;
    stats.recordsMoved = stats.phase1RecordsMoved + merged.recordsMoved;
    stats.phase2Seconds =
        std::chrono::duration<double>(Clock::now() - t2).count();
    return stats;
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_BEHAVIORAL_HPP
