/**
 * @file
 * Out-of-core streaming sort benchmarks (google-benchmark).
 *
 * BM_StreamBatchSize sweeps the batch size b at a fixed pool budget —
 * larger b means fewer, bigger I/O calls but a smaller effective
 * fan-in (Equation 10's b * ell trade), so ms/GB is U-shaped.
 *
 * BM_StreamThreads sweeps the thread count on memory-backed run
 * stores (so storage bandwidth does not mask compute), splitting the
 * wall clock into phase-1 and phase-2 seconds — the axis that shows
 * whether the parallel phase-2 merge (concurrent groups + the
 * splitter-partitioned final pass) actually scales.
 *
 * The streamed-vs-in-memory comparison on files lives in perfbench
 * (the verified inmem_sort and extsort_file workloads).
 *
 * Run:  ./build/bench/bench_external_sort
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/external.hpp"

namespace
{

using namespace bonsai;

sorter::StreamEngine<Record>::Options
engineOptions(std::uint64_t batch_records)
{
    sorter::StreamEngine<Record>::Options opt;
    opt.phase1Ell = 16;
    opt.phase2Ell = 16;
    opt.chunkRecords = 1 << 16; // 1 MiB chunks
    opt.batchRecords = batch_records;
    opt.bufferBudgetBytes = 4ULL << 20;
    opt.threads = 2;
    return opt;
}

void
BM_StreamBatchSize(benchmark::State &state)
{
    const std::size_t n = 1 << 21; // 32 MiB of records
    const std::uint64_t batch =
        static_cast<std::uint64_t>(state.range(0));
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 77);
    const sorter::StreamEngine<Record> engine(engineOptions(batch));

    sorter::StreamStats last;
    for (auto _ : state) {
        io::MemorySource<Record> source{
            std::span<const Record>(input)};
        std::vector<Record> out;
        out.reserve(n);
        io::MemorySink<Record> sink(out);
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        last = engine.sortStream(source, sink, front, back);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["batch_records"] = static_cast<double>(batch);
    state.counters["effective_ell"] =
        static_cast<double>(last.effectiveEll);
}

/** One streamed sort over memory-backed run stores at @p threads.
 *  Fan-in 8 with a 16 MiB pool: 256 buffers hold up to 14 lanes of
 *  2*8 + 2 buffers, so the budget never caps the thread axis. */
sorter::StreamStats
streamOnMemoryStores(const std::vector<Record> &input, unsigned threads,
                     std::vector<Record> &out)
{
    auto opt = engineOptions(1 << 12);
    opt.phase2Ell = 8;
    opt.bufferBudgetBytes = 16ULL << 20;
    opt.threads = threads;
    const sorter::StreamEngine<Record> engine(opt);
    io::MemorySource<Record> source{std::span<const Record>(input)};
    out.clear();
    out.reserve(input.size());
    io::MemorySink<Record> sink(out);
    std::vector<Record> fbuf(input.size());
    std::vector<Record> bbuf(input.size());
    io::MemoryRunStore<Record> front({fbuf.data(), fbuf.size()});
    io::MemoryRunStore<Record> back({bbuf.data(), bbuf.size()});
    return engine.sortStream(source, sink, front, back);
}

void
BM_StreamThreads(benchmark::State &state)
{
    const std::size_t n = 1 << 21; // 32 MiB of records
    const unsigned threads = static_cast<unsigned>(state.range(0));
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 4242);

    sorter::StreamStats last;
    std::vector<Record> out;
    for (auto _ : state) {
        last = streamOnMemoryStores(input, threads, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["phase1_ms"] = last.phase1Seconds * 1e3;
    state.counters["phase2_ms"] = last.phase2Seconds * 1e3;
    state.counters["lanes"] =
        static_cast<double>(last.concurrentGroups);
    state.counters["final_slices"] =
        static_cast<double>(last.finalSlices);
}

BENCHMARK(BM_StreamBatchSize)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 15) // 8-buffer pool: fan-in squeezed to 3
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_StreamThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
