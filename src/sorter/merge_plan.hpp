/**
 * @file
 * Phase-2 merge planning: the Equation-10 buffer-budget shape, the
 * per-lane I/O worker pair, and the per-task stall tally the merge
 * stages report with.
 *
 * The shape derivation is the engine's resource model: a streamed
 * ell-way merge lane holds 2 buffers per input cursor plus 2 for its
 * write-back, so W lanes of fan-in ell fit a pool of b-record buffers
 * when (2 ell + 2) * W <= buffers — the paper's b * ell on-chip
 * buffer bound (Eq. 10) generalized to W concurrent merge units.
 */

#ifndef BONSAI_SORTER_MERGE_PLAN_HPP
#define BONSAI_SORTER_MERGE_PLAN_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/contract.hpp"
#include "common/thread_pool.hpp"

namespace bonsai::sorter
{

/** Joint phase-2 shape admitted by the Equation-10 pool budget
 *  b * (2 ell + 2) * W. */
struct Phase2Shape
{
    unsigned ell = 2;   ///< effective merge fan-in
    unsigned lanes = 1; ///< concurrent merge groups / final slices
};

/**
 * Joint (fan-in, lanes) derivation from @p have available batch
 * buffers.  Fan-in is maximized first (it cuts the number of storage
 * round trips, the dominant cost), then whatever budget is left
 * admits extra lanes, capped at @p threads.  Fails loudly (all build
 * types) when even one 2-way lane does not fit — blocking acquire()s
 * would otherwise deadlock mid-sort.  @p budget_bytes only labels the
 * failure message.
 */
inline Phase2Shape
phase2Shape(std::uint64_t have, std::uint64_t budget_bytes,
            unsigned phase2_ell, unsigned threads)
{
    if (have < 6)
        contracts::fail(
            "precondition", "bufs.buffers() >= 6", __FILE__, __LINE__,
            "buffer pool budget (" + std::to_string(budget_bytes) +
                " bytes) holds only " + std::to_string(have) +
                " batch buffer(s); a streaming merge needs at "
                "least 6 (2 per input run of a 2-way merge + 2 "
                "for write-back)");
    Phase2Shape shape;
    shape.ell = static_cast<unsigned>(
        std::min<std::uint64_t>(phase2_ell, (have - 2) / 2));
    const std::uint64_t per_lane = 2ULL * shape.ell + 2;
    shape.lanes = static_cast<unsigned>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(threads, have / per_lane)));
    return shape;
}

/** Per-lane background I/O workers: one phase-2 merge lane owns a
 *  prefetch thread and a write-back thread for the whole sort.  Lane
 *  0's writer also carries phase 1's chunk loads and spills. */
struct Lane
{
    BackgroundWorker reader;
    BackgroundWorker writer;
};

/** Stall/move tally of one merge task, accumulated race-free per
 *  worker and folded into StreamStats under the caller's control. */
struct GroupTally
{
    std::uint64_t moved = 0;
    double readStall = 0.0;
    double writeStall = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_PLAN_HPP
