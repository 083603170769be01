/**
 * @file
 * Double-buffered batch writer: push() fills the front buffer of a
 * DoubleBuffer while the back one drains to the sink on a background
 * worker.  All writes to a sink funnel through one worker, so they
 * land in push order.
 *
 * Holds two pool buffers for its lifetime (the "+2" of the engine's
 * per-lane 2 ell + 2 budget).  finish() must be called on the normal
 * path for errors to surface; on unwind the DoubleBuffer records a
 * late failure through the sort-wide ErrorTrap instead of throwing.
 */

#ifndef BONSAI_SORTER_STREAM_WRITER_HPP
#define BONSAI_SORTER_STREAM_WRITER_HPP

#include <cstdint>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/stream.hpp"
#include "sorter/double_buffer.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class StreamWriter
{
  public:
    StreamWriter(io::RecordSink<RecordT> &sink,
                 io::BufferPool<RecordT> &pool, BackgroundWorker &writer,
                 ErrorTrap &trap)
        : sink_(&sink), batch_(pool.batchRecords()),
          buf_(io::PoolLease<RecordT>(pool), io::PoolLease<RecordT>(pool),
               writer, trap)
    {
    }

    StreamWriter(const StreamWriter &) = delete;
    StreamWriter &operator=(const StreamWriter &) = delete;

    void
    push(const RecordT &rec)
    {
        buf_.front()[len_++] = rec;
        if (len_ == batch_)
            flush();
    }

    /** Drain everything to the sink; required before destruction for
     *  errors to surface (the destructor swallows them). */
    void
    finish()
    {
        if (len_ > 0)
            flush();
        buf_.wait();
    }

    /** Seconds push()/finish() blocked on in-flight write-back. */
    double stallSeconds() const { return buf_.stallSeconds(); }

  private:
    /** Swap the filled batch to the back and write it out. */
    void
    flush()
    {
        buf_.step(len_, [this](const RecordT *src, std::uint64_t n) {
            sink_->write(src, n);
        });
        len_ = 0;
    }

    io::RecordSink<RecordT> *sink_;
    std::uint64_t batch_;
    std::uint64_t len_ = 0; ///< records filled in the front buffer
    DoubleBuffer<io::PoolLease<RecordT>> buf_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_STREAM_WRITER_HPP
