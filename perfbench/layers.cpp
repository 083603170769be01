#include "layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "baseline/cpu_sorters.hpp"
#include "common/gensort.hpp"
#include "core/optimizer.hpp"
#include "core/platforms.hpp"
#include "hw/bitonic.hpp"
#include "io/buffer_pool.hpp"
#include "io/byte_io.hpp"
#include "io/manifest.hpp"
#include "pipeline/queue.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/loser_tree.hpp"

namespace perfbench
{

namespace
{

using bonsai::Record128;

constexpr int kReps = 3;
/** The packed AMT record width the in-memory MB/s figures count. */
constexpr double kAmtRecordBytes = 16.0;
/** Records of the block-level microbenches (presort, loser tree). */
constexpr std::uint64_t kBlockBenchRecords = 1 << 20;

void
require(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error("microbench " + what +
                                 " produced a wrong result");
}

/** Seconds of @p body, recorded as a root span named @p name. */
template <typename Fn>
double
timeSpan(SpanRecorder &rec, const std::string &name, Fn &&body)
{
    const auto t0 = Clock::now();
    {
        const RootSpan span(rec, SpanKind::Microbench, name);
        body();
    }
    return secondsSince(t0);
}

/** The fan-in the optimizer picks for the in-memory sort of @p n
 *  records (what DramSorter::sort runs its BehavioralSorter with). */
unsigned
amtEll(std::uint64_t n)
{
    bonsai::model::BonsaiInputs in;
    in.array = {n, static_cast<std::uint64_t>(kAmtRecordBytes)};
    in.hw = bonsai::core::awsF1();
    const auto best =
        bonsai::core::Optimizer(in, {}).best(bonsai::core::Objective::Latency);
    if (!best)
        throw std::runtime_error("no feasible AMT configuration");
    return best->config.ell;
}

double
kernelMbps(const std::vector<Record128> &input, SpanRecorder &rec)
{
    const bonsai::sorter::BehavioralSorter<Record128> kernel(
        amtEll(input.size()),
        bonsai::model::MergerArchParams{}.presortRunLength, 1);
    std::vector<double> rates;
    for (int i = 0; i < kReps; ++i) {
        std::vector<Record128> work = input;
        const double s =
            timeSpan(rec, "sorter.BehavioralSorter::sort",
                     [&] { kernel.sort(work); });
        require(work.size() == input.size() &&
                    std::is_sorted(work.begin(), work.end()),
                "sorter.kernel");
        rates.push_back(static_cast<double>(input.size()) *
                        kAmtRecordBytes / 1e6 / s);
    }
    return median(rates);
}

double
stdSortMbps(const std::vector<Record128> &input, SpanRecorder &rec)
{
    // baseline::stdSort orders 16-byte Records by a 64-bit key: the
    // first 8 key bytes, with the rest of the packed record as value.
    std::vector<bonsai::Record> records;
    records.reserve(input.size());
    for (const Record128 &r : input)
        records.push_back({r.keyHi, (r.keyLo << 48) | r.value});
    std::vector<double> rates;
    for (int i = 0; i < kReps; ++i) {
        std::vector<bonsai::Record> work = records;
        const double s = timeSpan(rec, "baseline.stdSort",
                                  [&] { bonsai::baseline::stdSort(work); });
        require(std::is_sorted(work.begin(), work.end()), "baseline");
        rates.push_back(static_cast<double>(input.size()) *
                        kAmtRecordBytes / 1e6 / s);
    }
    return median(rates);
}

/** Million records per second sorting 16-record blocks with
 *  @p sort_block. */
template <typename SortBlock>
double
blockSortMrecs(const std::vector<Record128> &input, const char *name,
               SpanRecorder &rec, SortBlock &&sort_block)
{
    constexpr std::size_t kBlock = 16;
    const std::size_t n =
        std::min<std::size_t>(input.size(), kBlockBenchRecords) / kBlock *
        kBlock;
    std::vector<double> rates;
    for (int i = 0; i < kReps; ++i) {
        std::vector<Record128> work(input.begin(),
                                    input.begin() +
                                        static_cast<std::ptrdiff_t>(n));
        const double s = timeSpan(rec, name, [&] {
            for (std::size_t lo = 0; lo < n; lo += kBlock)
                sort_block(std::span<Record128>(work.data() + lo, kBlock));
        });
        for (std::size_t lo = 0; lo < n; lo += kBlock)
            require(std::is_sorted(work.begin() + lo,
                                   work.begin() + lo + kBlock),
                    name);
        rates.push_back(static_cast<double>(n) / 1e6 / s);
    }
    return median(rates);
}

double
loserTreeMrecs(const std::vector<Record128> &input, unsigned ell,
               SpanRecorder &rec)
{
    const std::size_t n =
        std::min<std::size_t>(input.size(), kBlockBenchRecords);
    std::vector<Record128> runs(input.begin(),
                                input.begin() +
                                    static_cast<std::ptrdiff_t>(n));
    std::vector<std::span<const Record128>> spans;
    for (std::size_t i = 0; i < ell; ++i) {
        const std::size_t lo = n * i / ell;
        const std::size_t hi = n * (i + 1) / ell;
        std::sort(runs.begin() + static_cast<std::ptrdiff_t>(lo),
                  runs.begin() + static_cast<std::ptrdiff_t>(hi));
        spans.emplace_back(runs.data() + lo, hi - lo);
    }
    std::vector<double> rates;
    std::vector<Record128> out(n);
    for (int i = 0; i < kReps; ++i) {
        std::size_t k = 0;
        const double s = timeSpan(
            rec, "sorter.LoserTree.ell" + std::to_string(ell), [&] {
                bonsai::sorter::LoserTree<Record128> tree(spans);
                while (!tree.done())
                    out[k++] = tree.pop();
            });
        require(k == n && std::is_sorted(out.begin(), out.end()),
                "sorter.loser_tree");
        rates.push_back(static_cast<double>(n) / 1e6 / s);
    }
    return median(rates);
}

double
crc32Mbps(const std::vector<Record128> &input, SpanRecorder &rec)
{
    const std::size_t bytes = std::min<std::size_t>(
        input.size() * sizeof(Record128), 32ULL << 20);
    const std::uint32_t want = bonsai::io::crc32Of(input.data(), bytes);
    std::vector<double> rates;
    for (int i = 0; i < 5; ++i) {
        std::uint32_t got = 0;
        const double s = timeSpan(rec, "io.crc32", [&] {
            got = bonsai::io::crc32Of(input.data(), bytes);
        });
        require(got == want, "io.crc32");
        rates.push_back(static_cast<double>(bytes) / 1e6 / s);
    }
    return median(rates);
}

/** Median milliseconds of a saveManifest commit of a 96-run manifest
 *  (the extsort workloads' phase-1 run count). */
double
manifestCommitMs(const std::string &work_dir, SpanRecorder &rec)
{
    const std::string dir = work_dir + "/manifest-bench";
    bonsai::io::createDirectories(dir);
    bonsai::io::JobManifest m;
    m.params = {100, 2'000'000, 20'971, 40, 16, 64, 2ULL << 20};
    for (std::uint64_t i = 0; i < 96; ++i)
        m.runs.push_back({i * 20'971, 20'971,
                          static_cast<std::uint32_t>(i * 2654435761u)});
    std::vector<double> ms;
    for (int i = 0; i < 15; ++i) {
        m.chunksDone = static_cast<std::uint64_t>(i);
        ms.push_back(1e3 * timeSpan(rec, "io.saveManifest", [&] {
                         bonsai::io::saveManifest(dir, m);
                     }));
    }
    const bonsai::io::ManifestLoadResult back =
        bonsai::io::loadManifest(dir);
    require(back.status == bonsai::io::ManifestStatus::Ok &&
                back.manifest.runs.size() == 96 &&
                back.manifest.chunksDone == 14,
            "io.saveManifest");
    bonsai::io::removeJobArtifacts(dir);
    return median(ms);
}

/** Nanoseconds one thread spends per BufferPool acquire+release pair
 *  while @p threads threads cycle buffers of the extsort pool shape
 *  (b = 40 gensort records, 2 MiB budget). */
double
poolAcquireReleaseNs(unsigned threads, SpanRecorder &rec)
{
    constexpr std::uint64_t kPairs = 200'000;
    std::vector<double> ns;
    for (int i = 0; i < kReps; ++i) {
        bonsai::io::BufferPool<bonsai::GensortRecord> pool(40, 2ULL << 20);
        const double s = timeSpan(
            rec, "io.BufferPool.t" + std::to_string(threads), [&] {
                std::vector<std::thread> workers;
                for (unsigned t = 0; t < threads; ++t)
                    workers.emplace_back([&pool] {
                        for (std::uint64_t k = 0; k < kPairs; ++k)
                            pool.release(pool.acquire());
                    });
                for (std::thread &w : workers)
                    w.join();
            });
        require(pool.outstanding() == 0 &&
                    pool.peakOutstanding() <= threads,
                "io.BufferPool");
        ns.push_back(s * 1e9 / static_cast<double>(kPairs));
    }
    return median(ns);
}

/** Nanoseconds per item handed through a capacity-2 BoundedQueue, the
 *  edge shape of the phase-1 load -> sort -> spill pipeline. */
double
queueHandoffNs(SpanRecorder &rec)
{
    constexpr std::uint64_t kItems = 200'000;
    std::vector<double> ns;
    for (int i = 0; i < kReps; ++i) {
        bonsai::pipeline::BoundedQueue<std::uint64_t> q(2);
        std::uint64_t sum = 0;
        const double s = timeSpan(rec, "pipeline.BoundedQueue", [&] {
            std::thread producer([&q] {
                for (std::uint64_t k = 1; k <= kItems; ++k)
                    q.push(k);
                q.close();
            });
            double stall = 0.0;
            while (const auto item = q.pop(stall))
                sum += *item;
            producer.join();
        });
        require(sum == kItems * (kItems + 1) / 2, "pipeline.queue");
        ns.push_back(s * 1e9 / static_cast<double>(kItems));
    }
    return median(ns);
}

double
gensortMbps(std::uint64_t seed, SpanRecorder &rec)
{
    constexpr std::uint64_t kRecords = 1 << 18;
    const bonsai::GensortGenerator gen(seed);
    std::vector<double> rates;
    for (int i = 0; i < kReps; ++i) {
        std::size_t got = 0;
        const double s = timeSpan(rec, "common.GensortGenerator", [&] {
            got = gen.generate(0, kRecords).size();
        });
        require(got == kRecords, "common.gensort");
        rates.push_back(static_cast<double>(kRecords) *
                        bonsai::GensortRecord::kBytes / 1e6 / s);
    }
    return median(rates);
}

double
planMs(const Workload &workload, SpanRecorder &rec)
{
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i)
        ms.push_back(1e3 *
                     timeSpan(rec, "core.plan", [&] { workload.planOnce(); }));
    return median(ms);
}

} // namespace

Readings
runLayerMicrobenches(const LayerInputs &in, SpanRecorder &rec)
{
    const std::vector<Record128> &packed = *in.packed;
    Readings out;
    out.emplace_back("sorter.kernel_mbps", kernelMbps(packed, rec));
    for (const unsigned ell : {16u, 64u, 256u})
        out.emplace_back("sorter.loser_tree_mrecs.ell" + std::to_string(ell),
                         loserTreeMrecs(packed, ell, rec));
    out.emplace_back(
        "hw.presort_mrecs",
        blockSortMrecs(packed, "hw.bitonicSortNetwork", rec,
                       [](std::span<Record128> block) {
                           bonsai::hw::bitonicSortNetwork(block);
                       }));
    out.emplace_back(
        "hw.std_sort16_mrecs",
        blockSortMrecs(packed, "hw.std_sort16", rec,
                       [](std::span<Record128> block) {
                           std::sort(block.begin(), block.end());
                       }));
    out.emplace_back("io.crc32_mbps", crc32Mbps(packed, rec));
    out.emplace_back("io.manifest_commit_ms",
                     manifestCommitMs(in.workDir, rec));
    out.emplace_back("io.pool_acquire_release_ns.t1",
                     poolAcquireReleaseNs(1, rec));
    out.emplace_back("io.pool_acquire_release_ns.t4",
                     poolAcquireReleaseNs(4, rec));
    out.emplace_back("pipeline.queue_handoff_ns", queueHandoffNs(rec));
    out.emplace_back("core.plan_ms", planMs(*in.workload, rec));
    out.emplace_back("common.gensort_mbps", gensortMbps(in.seed, rec));
    out.emplace_back("baseline.std_sort_mbps", stdSortMbps(packed, rec));
    return out;
}

} // namespace perfbench
