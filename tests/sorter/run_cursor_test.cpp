/** @file Unit tests for RunCursor's window()/consume() at batch edges. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/run_store.hpp"
#include "sorter/run_cursor.hpp"

namespace bonsai
{
namespace
{

/** A memory store holding 100 records, a pool of b-record batches
 *  and the error trap and prefetch worker a cursor needs. */
class RunCursorTest : public ::testing::Test
{
  protected:
    RunCursorTest()
        : data_(makeRecords(100, Distribution::UniformRandom, 9)),
          store_(std::span<Record>(data_))
    {
    }

    /** Consume the cursor over @p span of a b-record pool @p step
     *  records at a time (capped at the window); returns what was
     *  read and checks every window against the batch grid. */
    std::vector<Record>
    readAll(RunSpan span, std::uint64_t b, std::uint64_t step)
    {
        io::BufferPool<Record> pool(b, 2 * b * sizeof(Record));
        std::vector<Record> got;
        {
            sorter::RunCursor<Record> cursor(store_, span, pool,
                                             reader_, trap_);
            EXPECT_EQ(pool.outstanding(), 2U);
            std::uint64_t read = 0;
            while (!cursor.window().empty()) {
                const auto w = cursor.window();
                // A window never crosses a batch edge.
                const std::uint64_t inBatch = read % b;
                EXPECT_EQ(w.size(), std::min(b - inBatch,
                                             span.length - read));
                const std::uint64_t n = std::min<std::uint64_t>(
                    step, w.size());
                got.insert(got.end(), w.begin(),
                           w.begin() + static_cast<std::ptrdiff_t>(n));
                cursor.consume(n);
                read += n;
            }
            // consume(0) on an exhausted cursor is a no-op.
            cursor.consume(0);
            EXPECT_TRUE(cursor.window().empty());
        }
        EXPECT_EQ(pool.outstanding(), 0U);
        return got;
    }

    std::vector<Record>
    slice(RunSpan span) const
    {
        return {data_.begin() + static_cast<std::ptrdiff_t>(span.offset),
                data_.begin() +
                    static_cast<std::ptrdiff_t>(span.offset +
                                                span.length)};
    }

    std::vector<Record> data_;
    io::MemoryRunStore<Record> store_;
    ErrorTrap trap_;
    BackgroundWorker reader_;
};

TEST_F(RunCursorTest, BatchOfOneRecord)
{
    const RunSpan span{10, 37};
    EXPECT_EQ(readAll(span, 1, 1), slice(span));
}

TEST_F(RunCursorTest, BatchCoversTheWholeRun)
{
    const RunSpan span{5, 40};
    EXPECT_EQ(readAll(span, 40, 40), slice(span));
    EXPECT_EQ(readAll(span, 64, 64), slice(span));
    EXPECT_EQ(readAll(span, 64, 7), slice(span));
}

TEST_F(RunCursorTest, PartialLastBatch)
{
    const RunSpan span{3, 30}; // batches of 8, 8, 8, 6
    EXPECT_EQ(readAll(span, 8, 8), slice(span));
    EXPECT_EQ(readAll(span, 8, 3), slice(span));
    EXPECT_EQ(readAll(span, 8, 1), slice(span));
}

TEST_F(RunCursorTest, EmptyRun)
{
    EXPECT_TRUE(readAll(RunSpan{50, 0}, 4, 1).empty());
}

TEST_F(RunCursorTest, ZeroConsumeKeepsTheWindow)
{
    io::BufferPool<Record> pool(4, 8 * sizeof(Record));
    {
        sorter::RunCursor<Record> cursor(store_, RunSpan{0, 6}, pool,
                                         reader_, trap_);
        const auto before = cursor.window();
        cursor.consume(0);
        const auto after = cursor.window();
        EXPECT_EQ(after.data(), before.data());
        EXPECT_EQ(after.size(), 4U);
        cursor.consume(4); // the batch edge swaps in the last 2
        EXPECT_EQ(cursor.window().size(), 2U);
        EXPECT_EQ(cursor.window()[0], data_[4]);
        cursor.consume(2);
        EXPECT_TRUE(cursor.window().empty());
        cursor.consume(0);
        EXPECT_TRUE(cursor.window().empty());
    }
    EXPECT_EQ(pool.outstanding(), 0U);
}

} // namespace
} // namespace bonsai
