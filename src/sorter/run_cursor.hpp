/**
 * @file
 * Forward-only view of one stored run: double-buffered, batch-sized
 * reads with the next batch prefetched on a background worker while
 * the merge consumes the current one.
 *
 * One cursor holds exactly two pool buffers for its lifetime; the
 * engine's Equation-10 budget (2 ell + 2 buffers per merge lane)
 * counts them.  Destruction quiesces any in-flight prefetch before
 * returning the buffers, recording (never throwing) a late device
 * error through the sort-wide ErrorTrap.
 */

#ifndef BONSAI_SORTER_RUN_CURSOR_HPP
#define BONSAI_SORTER_RUN_CURSOR_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/run_store.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class RunCursor
{
  public:
    RunCursor(const io::RunStore<RecordT> &store, RunSpan span,
              io::BufferPool<RecordT> &pool, BackgroundWorker &reader,
              ErrorTrap *trap = nullptr)
        : store_(&store), reader_(&reader), trap_(trap),
          batch_(pool.batchRecords()), next_(span.offset),
          end_(span.offset + span.length), cur_(pool), pre_(pool)
    {
        ctx_ = "streaming run @" + std::to_string(span.offset) + "+" +
               std::to_string(span.length);
        // A throw from here on leaves nothing in flight (a failed
        // post reopens the gate), and the member leases return both
        // buffers.
        curLen_ = std::min<std::uint64_t>(batch_, end_ - next_);
        if (curLen_ > 0) {
            store_->readAt(next_, cur_.data(), curLen_, ctx_.c_str());
            next_ += curLen_;
        }
        schedulePrefetch();
    }

    RunCursor(const RunCursor &) = delete;
    RunCursor &operator=(const RunCursor &) = delete;

    ~RunCursor()
    {
        // An in-flight prefetch still targets pre_; let it land before
        // the leases return the buffers to the pool.  Nobody will
        // consume the data a failed prefetch was reading, but a device
        // error must not vanish either: record it as a secondary error
        // (first error wins).
        try {
            gate_.wait();
        } catch (...) {
            if (trap_ != nullptr)
                trap_->storeSecondary(std::current_exception());
        }
    }

    /** The unread records of the current batch; empty once the
     *  whole run [span.offset, span.offset + span.length) is
     *  consumed.  Valid until the next consume(). */
    std::span<const RecordT>
    window() const
    {
        return {cur_.data() + pos_, cur_.data() + curLen_};
    }

    /** Drop the first @p n records of window(); emptying the batch
     *  swaps in the prefetched one. */
    void
    consume(std::uint64_t n)
    {
        BONSAI_REQUIRE(n <= curLen_ - pos_,
                       "consume beyond the cursor's window");
        pos_ += n;
        if (pos_ == curLen_)
            refill();
    }

    /** Seconds the consumer blocked waiting for prefetched batches. */
    double stallSeconds() const { return stall_; }

  private:
    void
    refill()
    {
        if (preLen_ == 0)
            return; // run fully consumed: window() is now empty
        stall_ += gate_.wait();
        std::swap(cur_, pre_);
        curLen_ = preLen_;
        preLen_ = 0;
        pos_ = 0;
        schedulePrefetch();
    }

    void
    schedulePrefetch()
    {
        preLen_ = std::min<std::uint64_t>(batch_, end_ - next_);
        if (preLen_ == 0)
            return;
        const std::uint64_t off = next_;
        next_ += preLen_;
        gate_.arm();
        try {
            reader_->post([this, off] {
                try {
                    store_->readAt(off, pre_.data(), preLen_,
                                   ctx_.c_str());
                } catch (...) {
                    gate_.fail(std::current_exception());
                    return;
                }
                gate_.open();
            });
        } catch (...) {
            // Nothing made it in flight: reopen the gate so the
            // destructor's quiesce wait cannot deadlock.
            gate_.open();
            throw;
        }
    }

    const io::RunStore<RecordT> *store_;
    BackgroundWorker *reader_;
    ErrorTrap *trap_;
    std::string ctx_;
    std::uint64_t batch_;
    std::uint64_t next_; ///< next store offset to fetch
    std::uint64_t end_;  ///< one past the run's last record
    io::PoolLease<RecordT> cur_;
    io::PoolLease<RecordT> pre_;
    std::uint64_t curLen_ = 0;
    std::uint64_t preLen_ = 0;
    std::uint64_t pos_ = 0;
    io::TaskGate gate_;
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_RUN_CURSOR_HPP
