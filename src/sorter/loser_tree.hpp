/**
 * @file
 * ell-way run merging over in-memory spans — the software counterpart
 * of the hardware merge tree, used by the behavioral sorter for
 * GB-scale correctness runs and live CPU measurements.
 *
 * The merge itself is the buffered tree of branch-free 2-way mergers
 * in sorter/tournament.hpp (the one merge kernel in the repo, shared
 * with the out-of-core streamed merge); this class supplies the span
 * cursor set: one window of unread records per input, optionally
 * range-limited to a Merge Path slice.
 *
 * Each 2-way merger lets its left input win ties and the leaves sit
 * in input order, so the tree emits the unique sequence ordered by
 * (key, input index, position) — the same augmented total order the
 * Merge Path partitioner cuts on.  That makes the output independent
 * of how a merge is sliced across threads: a range-limited tree per
 * slice (bounded-cursor constructor) reproduces exactly the records
 * the whole-merge tree would emit in that output range.
 */

#ifndef BONSAI_SORTER_LOSER_TREE_HPP
#define BONSAI_SORTER_LOSER_TREE_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "sorter/tournament.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class LoserTree
{
  public:
    /** Merge the full extent of every input. */
    explicit LoserTree(std::vector<std::span<const RecordT>> inputs)
        : LoserTree(std::move(inputs), {}, {})
    {
    }

    /**
     * Range-limited merge: input i is consumed over positions
     * [begin[i], end[i]) only — a Merge Path slice.  Empty @p begin /
     * @p end default to the full extent.
     */
    LoserTree(std::vector<std::span<const RecordT>> inputs,
              const std::vector<std::uint64_t> &begin,
              const std::vector<std::uint64_t> &end)
        : cursors_(std::move(inputs), begin, end), tree_(cursors_)
    {
    }

    /** The tree points into this object's cursor set. */
    LoserTree(const LoserTree &) = delete;
    LoserTree &operator=(const LoserTree &) = delete;

    /** True when all inputs are exhausted. */
    bool done() const { return tree_.done(); }

    /** Pop the globally smallest record. */
    RecordT pop() { return tree_.pop(); }

  private:
    /** Span cursor set: TournamentTree's view of the inputs, one
     *  window of unread records per input. */
    class SpanCursors
    {
      public:
        SpanCursors(std::vector<std::span<const RecordT>> inputs,
                    const std::vector<std::uint64_t> &begin,
                    const std::vector<std::uint64_t> &end)
            : windows_(std::move(inputs))
        {
            BONSAI_REQUIRE(begin.size() == end.size(),
                           "cursor bound vectors must pair up");
            if (begin.empty())
                return;
            BONSAI_REQUIRE(begin.size() == windows_.size(),
                           "one cursor range per input");
            for (std::size_t i = 0; i < windows_.size(); ++i) {
                BONSAI_REQUIRE(begin[i] <= end[i],
                               "cursor range must not be inverted");
                BONSAI_REQUIRE(end[i] <= windows_[i].size(),
                               "cursor range exceeds its input");
                windows_[i] =
                    windows_[i].subspan(begin[i], end[i] - begin[i]);
            }
        }

        std::size_t size() const { return windows_.size(); }

        std::span<const RecordT>
        window(std::size_t i) const
        {
            return windows_[i];
        }

        void
        consume(std::size_t i, std::size_t n)
        {
            windows_[i] = windows_[i].subspan(n);
        }

      private:
        std::vector<std::span<const RecordT>> windows_;
    };

    SpanCursors cursors_;
    TournamentTree<RecordT, SpanCursors> tree_; ///< after cursors_
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_LOSER_TREE_HPP
