/**
 * @file
 * RAII lease of one io::BufferPool buffer — the one way the sorter
 * holds a pool buffer (the two halves of a RunCursor's or a
 * StreamWriter's sorter::DoubleBuffer, the splitter's probe window).
 *
 * A raw acquire()d std::vector owes the pool a release() on every
 * exit, the throwing ones included.  PoolLease makes the release part
 * of its destructor, so a member or a local returns the buffer on
 * every unwind path — BufferPool's outstanding() count reaches zero
 * by construction.  An owner whose buffer a background task may still
 * be writing must wait for that task before the lease dies (as
 * DoubleBuffer's destructor does).
 *
 * Movable, not copyable: exactly one owner at a time, like the buffer
 * itself.
 */

#ifndef BONSAI_IO_POOL_LEASE_HPP
#define BONSAI_IO_POOL_LEASE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "io/buffer_pool.hpp"

namespace bonsai::io
{

template <typename RecordT>
class PoolLease
{
  public:
    /** An empty lease (no buffer, no pool). */
    PoolLease() = default;

    /** Acquire one buffer from @p pool, blocking while the pool is
     *  exhausted; released when the lease dies. */
    explicit PoolLease(BufferPool<RecordT> &pool)
        : pool_(&pool), buf_(pool.acquire())
    {
    }

    PoolLease(PoolLease &&other) noexcept
        : pool_(other.pool_), buf_(std::move(other.buf_))
    {
        other.pool_ = nullptr;
    }

    PoolLease &
    operator=(PoolLease &&other) noexcept
    {
        if (this != &other) {
            reset();
            pool_ = other.pool_;
            buf_ = std::move(other.buf_);
            other.pool_ = nullptr;
        }
        return *this;
    }

    PoolLease(const PoolLease &) = delete;
    PoolLease &operator=(const PoolLease &) = delete;

    ~PoolLease() { reset(); }

    RecordT *data() { return buf_.data(); }
    const RecordT *data() const { return buf_.data(); }

    /** Record capacity of the held buffer (the pool's batch size). */
    std::uint64_t capacity() const { return buf_.size(); }

    /** Return the buffer to its pool early (idempotent). */
    void
    reset()
    {
        if (pool_ != nullptr) {
            pool_->release(std::move(buf_));
            pool_ = nullptr;
        }
    }

  private:
    BufferPool<RecordT> *pool_ = nullptr;
    std::vector<RecordT> buf_;
};

} // namespace bonsai::io

#endif // BONSAI_IO_POOL_LEASE_HPP
