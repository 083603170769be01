/**
 * @file
 * The benchmark's workloads.  Each makes its input from the seed,
 * sorts it through the library's public sort calls, and verifies every
 * output against a std::sort oracle outside the timed region.
 *
 *  - inmem_sort: gensort records packed to 16-byte AMT records, sorted
 *    by DramSorter::sort at one thread (the `file_sorter sort` kernel:
 *    presort network and merge stages, no storage I/O).
 *  - extsort_file: a gensort file streamed by SsdSorter::sortStream
 *    through FileSource/FileSink and spill files, under a memory
 *    budget 25x smaller than the input.
 *  - extsort_durable: the same sort with a checkpoint directory
 *    (manifest commits, fdatasync, run read-back).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/record.hpp"
#include "measure.hpp"
#include "sorter/stream_stats.hpp"
#include "trace.hpp"

namespace perfbench
{

/** Records of the inmem_sort input, which the layer microbenches
 *  also run on. */
inline constexpr std::uint64_t kInMemRecords = 4ULL << 20;

struct WorkloadConfig
{
    std::string name;
    std::uint64_t seed = 0;
    std::uint64_t records = 0; ///< 0 = the workload's default size
    unsigned threads = 1;      ///< sort threads of the extsort_* runs
    std::string workDir;       ///< input, output and spill files
    std::string corrupt;       ///< "", "drop" or "swap" (self-test)
};

/** Named per-layer readings of one traced sort or microbench. */
using Readings = std::vector<std::pair<std::string, double>>;

/** One verified sort. */
struct SortRun
{
    CallCost cost;
    bonsai::sorter::StreamStats stats;
    std::string error; ///< "" when the output verified correct
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Make the input and construct the facade: what setup_s times. */
    virtual void setup() = 0;

    /** Untimed preparation after the set-ups: make the input durable
     *  (so its write-back cannot land inside a timed sort) and compute
     *  the std::sort oracle. */
    virtual void prepare() = 0;

    /** Input bytes one sort processes. */
    virtual std::uint64_t inputBytes() const = 0;

    /** One untimed-setup, timed-call, verified sort through the
     *  facade. */
    virtual SortRun sort() = 0;

    /** One sort through the tracing decorators; appends its per-layer
     *  readings to @p out.  Needs a prior sort(), whose report it
     *  reproduces. */
    virtual SortRun tracedSort(SpanRecorder &rec, Readings &out) = 0;

    /** Bytes written to the sort's working tier per input byte. */
    virtual double writeAmp(const bonsai::sorter::StreamStats &s) const = 0;

    /** One call of the planner the facade consults before sorting. */
    virtual void planOnce() const = 0;
};

/** The workload named by @p cfg.name, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const WorkloadConfig &cfg);

/** "" when the deterministic counters of @p a and @p b agree, else
 *  the name of the first counter that differs. */
std::string
deterministicDiff(const bonsai::sorter::StreamStats &a,
                  const bonsai::sorter::StreamStats &b);

/** Packed AMT records [0, n) of GensortGenerator(@p seed). */
std::vector<bonsai::Record128> packedGensort(std::uint64_t seed,
                                             std::uint64_t n);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
