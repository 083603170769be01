/**
 * @file
 * Layer microbenches for the traced run.  Each calls one module's
 * public functions on inputs made from the seed, checks the result,
 * and reports a median over a few repetitions as a named per-layer
 * reading.  Every repetition is also a root span in the trace.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <string>
#include <vector>

#include "common/record.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench
{

/** Inputs the microbenches share. */
struct LayerInputs
{
    /** The inmem_sort input: packed 16-byte AMT records. */
    const std::vector<bonsai::Record128> *packed = nullptr;
    std::uint64_t seed = 0;
    std::string workDir; ///< scratch directory for manifest commits
    const Workload *workload = nullptr; ///< whose planner core.plan_ms times
};

/** Run every microbench; throws if one produces a wrong result. */
Readings runLayerMicrobenches(const LayerInputs &in, SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
