/**
 * @file
 * Bounded blocking queue connecting the threads of a pipeline.  No
 * library code calls it: perfbench's pipeline.queue_handoff_ns layer
 * times it, and the header goes together with that layer.
 *
 * The producer push()es, the consumer pop()s, and the bounded
 * capacity is the backpressure — a producer that outruns its consumer
 * blocks instead of buffering unboundedly, so resident memory stays
 * at capacity() items no matter how lopsided the loop speeds are.
 * Seeded with recycled buffers and drained/refilled in a cycle, the
 * same queue doubles as a free list.
 *
 * Lifecycle: the producer close()s when done, after which pop()
 * drains the remaining items and then reports end-of-stream.  On
 * error, the failing loop poison()s every queue: all blocked and
 * future operations throw PipelineAborted, which the other loops
 * treat as unwind (not a new error), so exactly one primary failure
 * surfaces no matter how many loops were mid-push.
 *
 * Locking: the queue mutex is a leaf lock like every other in the
 * tree (see common/sync.hpp) — held only around the deque and flag
 * accesses, never across user code, item destruction on clear, or
 * another lock.
 */

#ifndef BONSAI_PIPELINE_QUEUE_HPP
#define BONSAI_PIPELINE_QUEUE_HPP

#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <optional>
#include <utility>

#include "common/contract.hpp"
#include "common/sync.hpp"

namespace bonsai::pipeline
{

/**
 * Thrown by queue operations after poison(): the pipeline is
 * unwinding behind a primary error.  Loop bodies let it propagate;
 * whoever runs them absorbs it instead of storing it as an error.
 */
class PipelineAborted : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "pipeline aborted behind a primary error";
    }
};

template <typename T>
class BoundedQueue
{
  public:
    /** A queue holding at most @p capacity items. */
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity)
    {
        BONSAI_REQUIRE(capacity >= 1,
                       "a bounded queue needs capacity for at least "
                       "one item");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Enqueue @p item, blocking while the queue is full.  Returns the
     * seconds spent blocked (the producer's backpressure stall).
     * Throws PipelineAborted once poisoned; pushing after close() is
     * a contract violation (the producer owns the close).
     */
    double
    push(T item) BONSAI_EXCLUDES(mutex_)
    {
        double stall = 0.0;
        ScopedLock lock(mutex_);
        if (items_.size() >= capacity_ && !poisoned_) {
            const auto t0 = std::chrono::steady_clock::now();
            while (items_.size() >= capacity_ && !poisoned_)
                notFull_.wait(mutex_);
            stall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        }
        if (poisoned_)
            throw PipelineAborted();
        BONSAI_REQUIRE(!closed_, "push on a closed queue");
        items_.push_back(std::move(item));
        notEmpty_.notifyOne();
        return stall;
    }

    /**
     * Dequeue the oldest item, blocking while the queue is empty and
     * not yet closed.  Returns std::nullopt when the queue is closed
     * and drained (end of stream).  Seconds spent blocked (the
     * consumer's starvation stall) are added to @p stall_seconds.
     * Throws PipelineAborted once poisoned.
     */
    std::optional<T>
    pop(double &stall_seconds) BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        if (items_.empty() && !closed_ && !poisoned_) {
            const auto t0 = std::chrono::steady_clock::now();
            while (items_.empty() && !closed_ && !poisoned_)
                notEmpty_.wait(mutex_);
            stall_seconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        }
        if (poisoned_)
            throw PipelineAborted();
        if (items_.empty())
            return std::nullopt; // closed and drained
        T out = std::move(items_.front());
        items_.pop_front();
        notFull_.notifyOne();
        return out;
    }

    /** Producer is done: pops drain the backlog, then end-of-stream.
     *  Idempotent. */
    void
    close() BONSAI_EXCLUDES(mutex_)
    {
        {
            ScopedLock lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notifyAll();
    }

    /**
     * Error unwind: wake every blocked producer/consumer and make all
     * operations throw PipelineAborted.  Pending items are destroyed
     * outside the lock (RAII items — e.g. pool-buffer leases — thus
     * return their resources even mid-unwind).  Idempotent.
     */
    void
    poison() BONSAI_EXCLUDES(mutex_)
    {
        std::deque<T> doomed;
        {
            ScopedLock lock(mutex_);
            poisoned_ = true;
            doomed.swap(items_);
        }
        notFull_.notifyAll();
        notEmpty_.notifyAll();
        // doomed unwinds here, invoking item destructors lock-free.
    }

    /** The backpressure bound: items the queue may hold at once. */
    std::size_t capacity() const { return capacity_; }

    /** Items currently queued (racy by nature; telemetry only). */
    std::size_t
    size() const BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        return items_.size();
    }

  private:
    const std::size_t capacity_;
    mutable Mutex mutex_;
    CondVar notFull_;
    CondVar notEmpty_;
    std::deque<T> items_ BONSAI_GUARDED_BY(mutex_);
    bool closed_ BONSAI_GUARDED_BY(mutex_) = false;
    bool poisoned_ BONSAI_GUARDED_BY(mutex_) = false;
};

} // namespace bonsai::pipeline

#endif // BONSAI_PIPELINE_QUEUE_HPP
