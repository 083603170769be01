/**
 * @file
 * The merge kernel — a software AMT(1, ell): a complete binary tree
 * of 2-way mergers with a small record buffer between levels, the
 * one place the augmented (key, input index, position) selection
 * order is implemented (paper "k-mergers", "AMT(p, ell)"; FLiMS).
 *
 * Structure: leaves are input cursors; each internal node owns a
 * buffer of kNodeRecords records that it refills from its two
 * children with a branch-free 2-way merge.  A refill runs
 * min(left, right, room) steps with no bounds check inside: each step
 * selects the source pointer by indexing a two-entry table with the
 * comparison result (no branch on the outcome) and copies one
 * record.  A child whose buffer runs dry is refilled recursively, so
 * records flow up the tree in buffer-sized bursts instead of one
 * root-path replay per record.  pop() reads the root's buffer.
 *
 * The left input wins ties, and leaves sit in input order, so every
 * node emits its subtree's records in (key, input index, position)
 * order — the same augmented total order the Merge Path partitioner
 * and the final-pass splitters cut on.  Both the in-memory
 * `LoserTree` (span cursors) and the out-of-core streamed merge
 * (prefetching `RunCursor`s) instantiate this kernel, which is why a
 * streamed merge is byte-identical to the in-memory merge of the same
 * runs.
 *
 * Node buffers are capped at kNodeBufferBytes each (8 to 64 records),
 * allocated once per tree and never value-initialized.
 *
 * The cursor-set parameter provides the merge's view of its inputs:
 *
 *   std::size_t size() const;              // number of input cursors
 *   std::span<const RecordT> window(std::size_t i) const;
 *                                          // ready records of cursor
 *                                          // i; empty = exhausted
 *   void consume(std::size_t i, std::size_t n);
 *                                          // drop n <= window size
 *
 * A window must stay valid until the next consume() on its cursor.
 */

#ifndef BONSAI_SORTER_TOURNAMENT_HPP
#define BONSAI_SORTER_TOURNAMENT_HPP

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/contract.hpp"

namespace bonsai::sorter
{

template <typename RecordT, typename CursorSetT>
class TournamentTree
{
    static_assert(std::is_trivially_copyable_v<RecordT> &&
                      std::is_trivially_destructible_v<RecordT>,
                  "node buffers hold records in raw storage");
    static_assert(alignof(RecordT) <=
                      __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "node buffers use the default new alignment");

  public:
    /** Byte cap of one internal node's buffer. */
    static constexpr std::size_t kNodeBufferBytes = 2048;
    /** Records per internal node buffer. */
    static constexpr std::size_t kNodeRecords = std::clamp<std::size_t>(
        kNodeBufferBytes / sizeof(RecordT), 8, 64);

    /** Build the tree over @p cursors (held by reference for the
     *  tree's lifetime) and fill the root. */
    explicit TournamentTree(CursorSetT &cursors) : cursors_(&cursors)
    {
        while (ways_ < cursors_->size())
            ways_ *= 2;
        nodes_.resize(ways_);
        store_.reset(static_cast<RecordT *>(::operator new(
            (ways_ - 1) * kNodeRecords * sizeof(RecordT))));
        fill(1);
    }

    /** True when all cursors are exhausted. */
    bool done() const { return nodes_[1].head == nodes_[1].tail; }

    /** Pop the globally smallest record in the augmented order. */
    RecordT
    pop()
    {
        BONSAI_REQUIRE(!done(), "pop from an exhausted tournament");
        Node &root = nodes_[1];
        const RecordT out = *root.head++;
        if (root.head == root.tail && !root.drained)
            fill(1);
        return out;
    }

  private:
    /** One internal node: its buffered records [head, tail). */
    struct Node
    {
        const RecordT *head = nullptr;
        const RecordT *tail = nullptr;
        bool drained = false; ///< both children are exhausted
    };

    struct ReleaseStore
    {
        void operator()(RecordT *p) const noexcept { ::operator delete(p); }
    };

    /** @p right ? @p b : @p a, computed as data: a branch here
     *  would mispredict on about half the records. */
    static const RecordT *
    pick(const RecordT *a, const RecordT *b, bool right)
    {
        const RecordT *const pair[2] = {a, b};
        return pair[static_cast<std::size_t>(right)];
    }

    /** Ready records of tree position @p pos (a leaf cursor or an
     *  internal node, refilled when dry); empty = exhausted. */
    std::span<const RecordT>
    input(std::size_t pos)
    {
        if (pos >= ways_) {
            const std::size_t slot = pos - ways_;
            if (slot >= cursors_->size())
                return {};
            return cursors_->window(slot);
        }
        Node &n = nodes_[pos];
        if (n.head == n.tail && !n.drained)
            fill(pos);
        return {n.head, n.tail};
    }

    /** Drop the first @p count records of input(@p pos). */
    void
    take(std::size_t pos, std::size_t count)
    {
        if (count == 0)
            return;
        if (pos >= ways_)
            cursors_->consume(pos - ways_, count);
        else
            nodes_[pos].head += count;
    }

    /** Refill internal node @p node's (empty) buffer by merging its
     *  two children; the left child wins ties. */
    void
    fill(std::size_t node)
    {
        RecordT *const base = store_.get() + (node - 1) * kNodeRecords;
        RecordT *out = base;
        RecordT *const stop = base + kNodeRecords;
        const std::size_t lc = 2 * node;
        const std::size_t rc = lc + 1;
        while (out != stop) {
            const std::span<const RecordT> l = input(lc);
            const std::span<const RecordT> r = input(rc);
            const auto room = static_cast<std::size_t>(stop - out);
            if (l.empty() || r.empty()) {
                const std::span<const RecordT> rest = l.empty() ? r : l;
                if (rest.empty()) {
                    nodes_[node].drained = true;
                    break;
                }
                const std::size_t n = std::min(rest.size(), room);
                out = std::copy_n(rest.data(), n, out);
                take(l.empty() ? rc : lc, n);
                continue;
            }
            const std::size_t steps =
                std::min({l.size(), r.size(), room});
            const RecordT *a = l.data();
            const RecordT *b = r.data();
            for (std::size_t k = 0; k < steps; ++k) {
                const bool right = *b < *a;
                *out++ = *pick(a, b, right);
                a += !right;
                b += right;
            }
            take(lc, static_cast<std::size_t>(a - l.data()));
            take(rc, static_cast<std::size_t>(b - r.data()));
        }
        nodes_[node].head = base;
        nodes_[node].tail = out;
    }

    CursorSetT *cursors_;
    std::size_t ways_ = 2; ///< leaf slots: a power of two, at least 2
    std::vector<Node> nodes_; ///< heap-indexed; [0] unused
    std::unique_ptr<RecordT, ReleaseStore> store_; ///< node buffers
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_TOURNAMENT_HPP
