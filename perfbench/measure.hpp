/**
 * @file
 * Process-level measurement helpers: wall and CPU clocks, the peak
 * resident-set high-water mark, medians and the filesystem a path
 * lives on.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** User plus system CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/**
 * Reset the kernel's peak-RSS high-water mark to the current resident
 * set: return freed heap to the OS, then write "5" to
 * /proc/self/clear_refs.  Throws when the kernel refuses, because the
 * peak that follows would then be the process lifetime's, not the
 * measured call's.
 */
void resetPeakRss();

/** VmHWM of /proc/self/status, in MiB. */
double peakRssMib();

/** What one timed call cost. */
struct CallCost
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double peakRssMib = 0.0;
};

/** Time @p fn with the peak-RSS mark reset just before it. */
template <typename Fn>
CallCost
measureCall(Fn &&fn)
{
    resetPeakRss();
    CallCost cost;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    fn();
    cost.wallSeconds = secondsSince(t0);
    cost.cpuSeconds = processCpuSeconds() - cpu0;
    cost.peakRssMib = peakRssMib();
    return cost;
}

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/** Name of the filesystem holding @p path ("ext4", "overlay", ...). */
std::string filesystemName(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
