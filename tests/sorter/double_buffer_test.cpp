/** @file Unit tests for DoubleBuffer: step order, error delivery and
 *  the quiescing destructor. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "sorter/double_buffer.hpp"

namespace bonsai::sorter
{
namespace
{

constexpr std::uint64_t kBatch = 4;

using Lease = io::PoolLease<std::uint64_t>;
using LeasedBuffer = DoubleBuffer<Lease>;

/** What ErrorTrap::rethrowIfSet throws ("" for nothing). */
std::string
trapped(ErrorTrap &trap)
{
    try {
        trap.rethrowIfSet();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

TEST(DoubleBufferTest, StepSwapsTheTransferredBatchInFront)
{
    io::BufferPool<std::uint64_t> pool(kBatch,
                                       2 * kBatch * sizeof(std::uint64_t));
    ErrorTrap trap;
    BackgroundWorker worker;
    {
        LeasedBuffer buf(Lease{pool}, Lease{pool}, worker, trap);
        EXPECT_EQ(pool.outstanding(), 2U);
        const auto fill = [](std::uint64_t first) {
            return [first](std::uint64_t *dst, std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    dst[i] = first + i;
            };
        };
        buf.step(kBatch, fill(10)); // into the back buffer
        buf.step(kBatch, fill(20)); // 10.. in front, 20.. in flight
        EXPECT_EQ(buf.front()[0], 10U);
        EXPECT_EQ(buf.front()[kBatch - 1], 13U);
        buf.step(0, fill(30)); // nothing posted
        EXPECT_EQ(buf.front()[0], 20U);
        buf.wait();
    }
    EXPECT_EQ(pool.outstanding(), 0U);
    EXPECT_EQ(trapped(trap), "");
}

TEST(DoubleBufferTest, TransferErrorSurfacesOnceFromTheNextWait)
{
    io::BufferPool<std::uint64_t> pool(kBatch,
                                       2 * kBatch * sizeof(std::uint64_t));
    ErrorTrap trap;
    BackgroundWorker worker;
    {
        LeasedBuffer buf(Lease{pool}, Lease{pool}, worker, trap);
        buf.step(kBatch, [](std::uint64_t *, std::uint64_t) {
            throw std::runtime_error("transfer failed");
        });
        std::string msg;
        try {
            buf.wait();
        } catch (const std::runtime_error &e) {
            msg = e.what();
        }
        EXPECT_EQ(msg, "transfer failed");
        // Consumed: later waits and steps see a clean gate.
        EXPECT_NO_THROW(buf.wait());
        EXPECT_NO_THROW(
            buf.step(kBatch, [](std::uint64_t *, std::uint64_t) {}));
        EXPECT_NO_THROW(buf.wait());
    }
    EXPECT_EQ(pool.outstanding(), 0U);
    EXPECT_EQ(trapped(trap), "") << "an error already delivered by a "
                                    "wait must not reach the trap";
}

TEST(DoubleBufferTest, DestroyWithAFailingTransferInFlightTrapsIt)
{
    io::BufferPool<std::uint64_t> pool(kBatch,
                                       2 * kBatch * sizeof(std::uint64_t));
    for (const bool primaryLater : {false, true}) {
        ErrorTrap trap;
        BackgroundWorker worker;
        io::TaskGate release;
        release.arm();
        // Opens the gate the transfer blocks on only after the
        // destructor has had time to start waiting for it.
        std::thread opener([&release] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            release.open();
        });
        EXPECT_NO_THROW({
            LeasedBuffer buf(Lease{pool}, Lease{pool}, worker, trap);
            buf.step(kBatch, [&release](std::uint64_t *, std::uint64_t) {
                release.wait();
                throw std::runtime_error("late transfer failure");
            });
        });
        opener.join();
        EXPECT_EQ(pool.outstanding(), 0U);
        if (primaryLater) {
            // Held as a secondary error: a later primary displaces it.
            trap.store(std::make_exception_ptr(
                std::runtime_error("primary failure")));
            EXPECT_EQ(trapped(trap), "primary failure");
        } else {
            EXPECT_EQ(trapped(trap), "late transfer failure");
        }
    }
}

} // namespace
} // namespace bonsai::sorter
