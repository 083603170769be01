/**
 * @file
 * Double-buffered batch transfer — the paper's data loader (batches of
 * b records, one in use while the other moves; Eq. 10) as the one
 * primitive both streamed-I/O ends share:
 *
 *  - RunCursor consumes the front buffer while the back one is
 *    prefetched from a run store;
 *  - StreamWriter fills the front buffer while the back one drains to
 *    a sink.
 *
 * Either way one step() is the whole refill or flush: wait for the
 * transfer in flight, swap the buffers, post the next transfer on the
 * back buffer.  All transfers of one DoubleBuffer go through one
 * BackgroundWorker, so at most one is in flight and they run in step
 * order.
 *
 * Holds two pool buffers for its lifetime (they are what the engine's
 * per-lane 2 ell + 2 budget counts).  A transfer error surfaces once,
 * from the next wait (step() or wait()).  Destruction quiesces the
 * transfer in flight before the buffers go back to the pool,
 * recording (never throwing) a late error through the sort-wide
 * ErrorTrap as a secondary error.
 */

#ifndef BONSAI_SORTER_DOUBLE_BUFFER_HPP
#define BONSAI_SORTER_DOUBLE_BUFFER_HPP

#include <cstdint>
#include <exception>
#include <utility>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class DoubleBuffer
{
  public:
    DoubleBuffer(io::BufferPool<RecordT> &pool, BackgroundWorker &worker,
                 ErrorTrap &trap)
        : worker_(&worker), trap_(&trap), front_(pool), back_(pool)
    {
    }

    DoubleBuffer(const DoubleBuffer &) = delete;
    DoubleBuffer &operator=(const DoubleBuffer &) = delete;

    ~DoubleBuffer()
    {
        // The transfer in flight still targets back_; let it land
        // before the leases return the buffers.  Its error has no
        // consumer any more, but must not vanish either.
        try {
            gate_.wait();
        } catch (...) {
            trap_->storeSecondary(std::current_exception());
        }
    }

    /** The buffer the owner reads or fills (batchRecords() long). */
    RecordT *front() { return front_.data(); }
    const RecordT *front() const { return front_.data(); }

    /**
     * Wait for the transfer in flight, swap the buffers, then post
     * @p transfer (back, n) on the worker — the back buffer being the
     * former front.  With @p n == 0 nothing is posted.  Rethrows the
     * error of the transfer it waited for, before swapping.
     */
    template <typename Transfer>
    void
    step(std::uint64_t n, Transfer transfer)
    {
        wait();
        std::swap(front_, back_);
        if (n == 0)
            return;
        RecordT *buf = back_.data();
        gate_.arm();
        try {
            worker_->post([this, buf, n, transfer] {
                try {
                    transfer(buf, n);
                } catch (...) {
                    gate_.fail(std::current_exception());
                    return;
                }
                gate_.open();
            });
        } catch (...) {
            // Nothing made it in flight: reopen the gate so later
            // waits (the destructor's included) cannot deadlock.
            gate_.open();
            throw;
        }
    }

    /** Wait for the transfer in flight, if any; rethrows its error. */
    void wait() { stall_ += gate_.wait(); }

    /** Seconds the owner blocked on in-flight transfers. */
    double stallSeconds() const { return stall_; }

  private:
    BackgroundWorker *worker_;
    ErrorTrap *trap_;
    io::PoolLease<RecordT> front_;
    io::PoolLease<RecordT> back_;
    io::TaskGate gate_;
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_DOUBLE_BUFFER_HPP
