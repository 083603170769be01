/**
 * @file
 * Double-buffered batch transfer — the paper's data loader (batches of
 * b records, one in use while the other moves; Eq. 10) as the one
 * primitive every streamed-I/O path of the engine shares:
 *
 *  - RunCursor consumes the front buffer while the back one is
 *    prefetched from a run store;
 *  - StreamWriter fills the front buffer while the back one drains to
 *    a sink;
 *  - phase 1 sorts the front chunk while the back one spills the
 *    chunk sorted last and loads the next.
 *
 * Either way one step() is the whole refill, flush or chunk swap: wait
 * for the transfer in flight, swap the buffers, post the next transfer
 * on the back buffer.  All transfers of one DoubleBuffer go through
 * one BackgroundWorker, so at most one is in flight and they run in
 * step order.
 *
 * Owns the two buffers it is given for its lifetime: two pool leases
 * (what the engine's per-lane 2 ell + 2 budget counts) or phase 1's
 * two chunk vectors.  A transfer error surfaces once, from the next
 * wait (step() or wait()).  Destruction quiesces the transfer in
 * flight before the buffers die, recording (never throwing) a late
 * error through the sort-wide ErrorTrap as a secondary error.
 */

#ifndef BONSAI_SORTER_DOUBLE_BUFFER_HPP
#define BONSAI_SORTER_DOUBLE_BUFFER_HPP

#include <cstdint>
#include <exception>
#include <type_traits>
#include <utility>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"

namespace bonsai::sorter
{

/** @tparam Buffer owns a record array and exposes it as data(). */
template <typename Buffer>
class DoubleBuffer
{
  public:
    using Record =
        std::remove_pointer_t<decltype(std::declval<Buffer &>().data())>;

    /** The first step() posts its transfer on @p front (swapped to
     *  the back), so a single-buffer owner passes the real buffer
     *  there and an empty one as @p back. */
    DoubleBuffer(Buffer front, Buffer back, BackgroundWorker &worker,
                 ErrorTrap &trap)
        : worker_(&worker), trap_(&trap), front_(std::move(front)),
          back_(std::move(back))
    {
    }

    DoubleBuffer(const DoubleBuffer &) = delete;
    DoubleBuffer &operator=(const DoubleBuffer &) = delete;

    ~DoubleBuffer()
    {
        // The transfer in flight still targets back_; let it land
        // before the buffers die.  Its error has no consumer any
        // more, but must not vanish either.
        try {
            gate_.wait();
        } catch (...) {
            trap_->storeSecondary(std::current_exception());
        }
    }

    /** The buffer the owner reads, fills or sorts. */
    Record *front() { return front_.data(); }
    const Record *front() const { return front_.data(); }

    /**
     * Wait for the transfer in flight, swap the buffers, then post
     * @p transfer (back, n) on the worker — the back buffer being the
     * former front — where @p n counts the records it moves.  With
     * @p n == 0 nothing is posted.  Rethrows the error of the
     * transfer it waited for, before swapping.
     */
    template <typename Transfer>
    void
    step(std::uint64_t n, Transfer transfer)
    {
        wait();
        std::swap(front_, back_);
        if (n == 0)
            return;
        Record *buf = back_.data();
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
    Buffer front_;
    Buffer back_;
    io::TaskGate gate_;
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_DOUBLE_BUFFER_HPP
