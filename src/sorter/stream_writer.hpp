/**
 * @file
 * Double-buffered batch writer: push() fills one buffer while the
 * previous one drains to the sink on a background worker.  All writes
 * to a sink funnel through one worker, so they land in push order.
 *
 * Holds two pool buffers for its lifetime (the "+2" of the engine's
 * per-lane 2 ell + 2 budget).  finish() must be called on the normal
 * path for errors to surface; the destructor quiesces and records a
 * late failure through the sort-wide ErrorTrap instead of throwing.
 */

#ifndef BONSAI_SORTER_STREAM_WRITER_HPP
#define BONSAI_SORTER_STREAM_WRITER_HPP

#include <cstdint>
#include <utility>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/stream.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class StreamWriter
{
  public:
    StreamWriter(io::RecordSink<RecordT> &sink,
                 io::BufferPool<RecordT> &pool, BackgroundWorker &writer,
                 ErrorTrap *trap = nullptr)
        : sink_(&sink), worker_(&writer), trap_(trap),
          batch_(pool.batchRecords()), cur_(pool), flight_(pool)
    {
    }

    StreamWriter(const StreamWriter &) = delete;
    StreamWriter &operator=(const StreamWriter &) = delete;

    ~StreamWriter()
    {
        // finish() reports errors on the normal path; a failure seen
        // only here (unwind) is recorded instead of dropped.  The
        // write in flight lands before the leases return the buffers.
        try {
            gate_.wait();
        } catch (...) {
            if (trap_ != nullptr)
                trap_->storeSecondary(std::current_exception());
        }
    }

    void
    push(const RecordT &rec)
    {
        cur_.data()[len_++] = rec;
        if (len_ == batch_)
            flushBatch();
    }

    /** Drain everything to the sink; required before destruction for
     *  errors to surface (the destructor swallows them). */
    void
    finish()
    {
        if (len_ > 0)
            flushBatch();
        stall_ += gate_.wait();
    }

    /** Seconds push()/finish() blocked on in-flight write-back. */
    double stallSeconds() const { return stall_; }

  private:
    void
    flushBatch()
    {
        stall_ += gate_.wait(); // previous batch must have landed
        std::swap(cur_, flight_);
        flightLen_ = len_;
        len_ = 0;
        gate_.arm();
        try {
            worker_->post([this] {
                try {
                    sink_->write(flight_.data(), flightLen_);
                } catch (...) {
                    gate_.fail(std::current_exception());
                    return;
                }
                gate_.open();
            });
        } catch (...) {
            // Nothing made it in flight: reopen the gate so later
            // waits (finish, destructor) cannot deadlock.
            gate_.open();
            throw;
        }
    }

    io::RecordSink<RecordT> *sink_;
    BackgroundWorker *worker_;
    ErrorTrap *trap_;
    std::uint64_t batch_;
    io::PoolLease<RecordT> cur_;
    io::PoolLease<RecordT> flight_;
    std::uint64_t len_ = 0;
    std::uint64_t flightLen_ = 0;
    io::TaskGate gate_;
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_STREAM_WRITER_HPP
