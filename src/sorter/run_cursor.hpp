/**
 * @file
 * Forward-only view of one stored run: batch-sized reads through a
 * DoubleBuffer, the next batch prefetched on a background worker
 * while the merge consumes the current one.
 *
 * One cursor holds exactly two pool buffers for its lifetime; the
 * engine's Equation-10 budget (2 ell + 2 buffers per merge lane)
 * counts them.
 */

#ifndef BONSAI_SORTER_RUN_CURSOR_HPP
#define BONSAI_SORTER_RUN_CURSOR_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/run_store.hpp"
#include "sorter/double_buffer.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class RunCursor
{
  public:
    RunCursor(const io::RunStore<RecordT> &store, RunSpan span,
              io::BufferPool<RecordT> &pool, BackgroundWorker &reader,
              ErrorTrap &trap)
        : store_(&store),
          ctx_("streaming run @" + std::to_string(span.offset) + "+" +
               std::to_string(span.length)),
          batch_(pool.batchRecords()), next_(span.offset),
          end_(span.offset + span.length),
          buf_(io::PoolLease<RecordT>(pool), io::PoolLease<RecordT>(pool),
               reader, trap)
    {
        // The first step fetches batch 0 into the back buffer; the
        // second swaps it in front and prefetches batch 1.
        advance();
        advance();
    }

    RunCursor(const RunCursor &) = delete;
    RunCursor &operator=(const RunCursor &) = delete;

    /** The unread records of the current batch; empty once the
     *  whole run [span.offset, span.offset + span.length) is
     *  consumed.  Valid until the next consume(). */
    std::span<const RecordT>
    window() const
    {
        return {buf_.front() + pos_, buf_.front() + curLen_};
    }

    /** Drop the first @p n records of window(); emptying the batch
     *  swaps in the prefetched one. */
    void
    consume(std::uint64_t n)
    {
        BONSAI_REQUIRE(n <= curLen_ - pos_,
                       "consume beyond the cursor's window");
        pos_ += n;
        if (pos_ == curLen_ && preLen_ > 0)
            advance();
    }

    /** Seconds the consumer blocked waiting for prefetched batches. */
    double stallSeconds() const { return buf_.stallSeconds(); }

  private:
    /** Swap the prefetched batch in front and prefetch the next. */
    void
    advance()
    {
        const std::uint64_t off = next_;
        const std::uint64_t n = std::min<std::uint64_t>(batch_, end_ - off);
        buf_.step(n, [this, off](RecordT *dst, std::uint64_t len) {
            store_->readAt(off, dst, len, ctx_.c_str());
        });
        next_ += n;
        curLen_ = preLen_;
        preLen_ = n;
        pos_ = 0;
    }

    const io::RunStore<RecordT> *store_;
    std::string ctx_;
    std::uint64_t batch_;
    std::uint64_t next_; ///< next store offset to fetch
    std::uint64_t end_;  ///< one past the run's last record
    std::uint64_t curLen_ = 0; ///< records in the front buffer
    std::uint64_t preLen_ = 0; ///< records in flight to the back one
    std::uint64_t pos_ = 0;
    /** Last: its destructor quiesces the prefetch, which reads the
     *  members above, before they die. */
    DoubleBuffer<io::PoolLease<RecordT>> buf_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_RUN_CURSOR_HPP
