/** @file Unit tests for the tournament loser tree. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/random.hpp"
#include "sorter/loser_tree.hpp"
#include "sorter/merge_path.hpp"

namespace bonsai
{
namespace
{

using Runs = std::vector<std::vector<Record>>;

std::vector<Record>
drain(sorter::LoserTree<Record> &tree)
{
    std::vector<Record> out;
    while (!tree.done())
        out.push_back(tree.pop());
    return out;
}

std::vector<std::span<const Record>>
spansOf(const Runs &runs)
{
    std::vector<std::span<const Record>> spans;
    for (const auto &run : runs)
        spans.emplace_back(run);
    return spans;
}

/** The independent oracle: the inputs concatenated in input order,
 *  then stable-sorted by key — i.e. the (key, input index, position)
 *  order, computed without the merge tree. */
std::vector<Record>
stableOracle(const Runs &runs)
{
    std::vector<Record> all;
    for (const auto &run : runs)
        all.insert(all.end(), run.begin(), run.end());
    std::stable_sort(all.begin(), all.end());
    return all;
}

void
expectRecords(const std::vector<Record> &got,
              const std::vector<Record> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << what << ": record " << i;
}

/** Whole records — key and payload — of the full-extent tree and of
 *  Merge-Path-bounded trees (slices concatenated) against the
 *  stable-sort oracle. */
void
checkMerge(const Runs &runs)
{
    const std::vector<Record> want = stableOracle(runs);
    sorter::LoserTree<Record> tree(spansOf(runs));
    expectRecords(drain(tree), want, "full extent");
    for (unsigned parts : {2U, 5U}) {
        const sorter::MergePath<Record> path(spansOf(runs));
        const auto bounds = path.partition(parts);
        std::vector<Record> got;
        for (unsigned t = 0; t < parts; ++t) {
            sorter::LoserTree<Record> slice(spansOf(runs), bounds[t],
                                            bounds[t + 1]);
            const auto part = drain(slice);
            got.insert(got.end(), part.begin(), part.end());
        }
        expectRecords(got, want,
                      std::to_string(parts) + " Merge Path slices");
    }
}

std::vector<Record>
sortedRun(std::size_t n, std::uint64_t seed)
{
    auto run = makeRecords(n, Distribution::UniformRandom, seed);
    std::sort(run.begin(), run.end());
    return run;
}

TEST(LoserTree, TwoWays)
{
    checkMerge({sortedRun(10, 1), sortedRun(13, 2)});
}

TEST(LoserTree, NonPowerOfTwoWays)
{
    checkMerge({sortedRun(5, 1), sortedRun(9, 2), sortedRun(2, 3)});
}

TEST(LoserTree, ManyWays)
{
    Runs runs;
    for (int i = 0; i < 64; ++i)
        runs.push_back(sortedRun(29 + (i % 7), 100 + i));
    checkMerge(runs);
}

TEST(LoserTree, EmptyRunsAmongInputs)
{
    checkMerge({{}, sortedRun(7, 1), {}, sortedRun(3, 2), {}});
}

TEST(LoserTree, SingleInput)
{
    checkMerge({sortedRun(20, 5)});
}

TEST(LoserTree, AllEmpty)
{
    std::vector<std::span<const Record>> spans(3);
    sorter::LoserTree<Record> tree(std::move(spans));
    EXPECT_TRUE(tree.done());
    checkMerge({{}, {}, {}});
}

TEST(LoserTree, DuplicateKeysAcrossRuns)
{
    std::vector<Record> a(15, Record{7, 1});
    std::vector<Record> b(9, Record{7, 2});
    std::vector<Record> c = {{5, 0}, {7, 3}, {9, 0}};
    checkMerge({a, b, c});
}

TEST(LoserTree, SkewedRunLengths)
{
    checkMerge({sortedRun(1000, 1), sortedRun(1, 2), sortedRun(1, 3),
                sortedRun(500, 4)});
}

class LoserTreeWays : public ::testing::TestWithParam<int>
{
};

TEST_P(LoserTreeWays, RandomRuns)
{
    Runs runs;
    for (int i = 0; i < GetParam(); ++i)
        runs.push_back(sortedRun(50, 200 + i));
    checkMerge(runs);
}

INSTANTIATE_TEST_SUITE_P(Fanins, LoserTreeWays,
                         ::testing::Values(2, 3, 4, 7, 8, 15, 16, 31,
                                           33, 256));

/** Tie order under heavy duplication: (fan-in, key distribution). */
class LoserTreeTies
    : public ::testing::TestWithParam<std::tuple<int, Distribution>>
{
};

TEST_P(LoserTreeTies, MatchesStableSortOracle)
{
    const auto [fanin, dist] = GetParam();
    Runs runs;
    for (int i = 0; i < fanin; ++i) {
        // Every fifth run is empty and every fifth holds one record;
        // the rest outlast several node-buffer refills.
        const std::size_t len =
            i % 5 == 3 ? 0 : (i % 5 == 4 ? 1 : 70 + (i * 37) % 200);
        auto run = makeRecords(len, dist, 300 + i);
        std::sort(run.begin(), run.end());
        // The payload names the record's input and position, so any
        // tie taken in the wrong order shows.
        for (std::size_t p = 0; p < run.size(); ++p)
            run[p].value = (static_cast<std::uint64_t>(i) << 32) | p;
        runs.push_back(std::move(run));
    }
    checkMerge(runs);
}

INSTANTIATE_TEST_SUITE_P(
    Fanins, LoserTreeTies,
    ::testing::Combine(::testing::Values(1, 2, 3, 16, 128, 256),
                       ::testing::Values(Distribution::AllEqual,
                                         Distribution::FewDistinct)),
    [](const auto &tp) {
        return std::to_string(std::get<0>(tp.param)) +
            (std::get<1>(tp.param) == Distribution::AllEqual
                 ? "_AllEqual"
                 : "_FewDistinct");
    });

} // namespace
} // namespace bonsai
