/**
 * @file
 * sortbench: runs one benchmark workload and prints its metrics.
 *
 *   sortbench --workload <inmem_sort|extsort_file|extsort_durable>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--records <n>] [--corrupt drop|swap]
 *
 * Input, output, spill and trace files go to .bench_work/ under the
 * current directory.  --trace 0 prints the end-to-end metrics,
 * --trace 1 the per-layer metrics of a traced run (and writes its
 * Chrome trace).  The last
 * stdout line is one JSON object {correct, attempted, failed,
 * metrics}.  --records shrinks the input for smoke tests; --corrupt
 * damages every output before verification, which must then fail.
 * Exit status: 0 when every sort verified, 1 when one did not, 2 on
 * a usage or setup error (no result line).
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "io/byte_io.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace
{

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sort_mbps", "MB/s"},      {"cpu_s_per_gb", "s/GB"},
    {"peak_rss_mib", "MiB"},    {"write_amp", "ratio"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sorter.phase1_s", "s"},
    {"sorter.phase2_s", "s"},
    {"sorter.read_stall_s", "s"},
    {"sorter.write_stall_s", "s"},
    {"sorter.merge_passes", "count"},
    {"sorter.batch_records", "records"},
    {"sorter.effective_ell", "ways"},
    {"sorter.pool_peak_kib", "KiB"},
    {"sorter.manifest_commits", "count"},
    {"sorter.self_s", "s"},
    {"sorter.kernel_mbps", "MB/s"},
    {"sorter.loser_tree_mrecs.ell16", "Mrec/s"},
    {"sorter.loser_tree_mrecs.ell64", "Mrec/s"},
    {"sorter.loser_tree_mrecs.ell256", "Mrec/s"},
    {"hw.presort_mrecs", "Mrec/s"},
    {"hw.std_sort16_mrecs", "Mrec/s"},
    {"io.source_read_s", "s"},
    {"io.sink_write_s", "s"},
    {"io.spill_read_calls", "count"},
    {"io.spill_write_calls", "count"},
    {"io.spill_read_s", "s"},
    {"io.spill_write_s", "s"},
    {"io.spill_bytes_per_call", "B"},
    {"io.sync_calls", "count"},
    {"io.readback_bytes", "B"},
    {"io.crc32_mbps", "MB/s"},
    {"io.manifest_commit_ms", "ms"},
    {"io.pool_acquire_release_ns.t1", "ns"},
    {"io.pool_acquire_release_ns.t4", "ns"},
    {"pipeline.queue_handoff_ns", "ns"},
    {"core.plan_ms", "ms"},
    {"common.gensort_mbps", "MB/s"},
    {"baseline.std_sort_mbps", "MB/s"},
    {"trace.overhead_pct", "%"},
    {"error_rate", "ratio"},
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 7;
/** Timed sorts per run at the least, however short --seconds is. */
constexpr std::size_t kMinSorts = 3;
/** Traced/untraced pairs per traced run at the least. */
constexpr std::size_t kMinPairs = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::uint64_t records = 0;
    std::string corrupt;
};

/** Input, output, spill, checkpoint and trace files: one directory,
 *  so they share one filesystem. */
const std::string kWorkDir = ".bench_work";

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "sortbench: %s\nusage: sortbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--records <n>] "
                 "[--corrupt drop|swap]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
            haveSeed = *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            a.trace = std::strcmp(value, "1") == 0   ? 1
                : std::strcmp(value, "0") == 0 ? 0
                                                 : -1;
        } else if (flag == "--records") {
            a.records = std::strtoull(value, &end, 10);
        } else if (flag == "--corrupt") {
            a.corrupt = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !haveSeed || a.seconds <= 0.0 || a.trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    if (!a.corrupt.empty() && a.corrupt != "drop" && a.corrupt != "swap")
        usage("--corrupt takes drop or swap");
    return a;
}

/** Attempted/failed tally over every verified sort of a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const SortRun &r)
    {
        ++attempted;
        if (!r.error.empty()) {
            ++failed;
            std::fprintf(stderr, "sortbench: sort %llu failed: %s\n",
                         static_cast<unsigned long long>(attempted),
                         r.error.c_str());
        }
    }
};

using Metrics = std::vector<std::pair<const MetricSpec *, double>>;

/** Run one sort; a sort that throws is a failed sort, not the end of
 *  the run. */
template <typename Fn>
SortRun
attempt(Fn &&sort)
{
    try {
        return sort();
    } catch (const std::exception &e) {
        SortRun r;
        r.error = std::string("sort threw: ") + e.what();
        return r;
    }
}

/**
 * Run @p sort in a forked child and return its cost and verdict.  Every
 * timed sort thus starts from the same process state: the malloc
 * arenas a previous sort's threads left resident (which malloc_trim
 * does not return) cannot raise the next sort's peak RSS.  The parent
 * holds no threads here, so forking is safe.
 */
template <typename Fn>
SortRun
forkedSort(Fn &&sort)
{
    struct Wire
    {
        CallCost cost;
        char error[512];
    };
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe() failed");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork() failed");
    if (pid == 0) {
        close(fds[0]);
        const SortRun r = sort();
        Wire w{r.cost, {}};
        r.error.copy(w.error, sizeof(w.error) - 1);
        const bool sent = write(fds[1], &w, sizeof(w)) ==
            static_cast<ssize_t>(sizeof(w));
        _exit(sent ? 0 : 1); // skip the parent's destructors
    }
    close(fds[1]);
    Wire w{};
    std::size_t got = 0;
    while (got < sizeof(w)) {
        const ssize_t n =
            read(fds[0], reinterpret_cast<char *>(&w) + got, sizeof(w) - got);
        if (n <= 0 && errno != EINTR)
            break;
        got += n > 0 ? static_cast<std::size_t>(n) : 0;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    SortRun r;
    if (got != sizeof(w) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        r.error = "sort process died (wait status " +
            std::to_string(status) + ")";
        return r;
    }
    r.cost = w.cost;
    r.error = w.error;
    return r;
}

void
printResult(const Args &a, const Tally &tally, const Metrics &metrics)
{
    std::printf("workload %s  seed %llu  trace %d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.trace);
    for (const auto &[spec, value] : metrics)
        std::printf("  %-32s %16.6f %s\n", spec->name, value, spec->unit);
    std::printf("  sorts verified: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // Only a run whose sorts all failed has no finite value; its
        // result already says correct=false.
        const double v = metrics[i].second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].first->name,
                    std::isfinite(v) ? v : 0.0, metrics[i].first->unit);
    }
    std::printf("}}\n");
}

Metrics
runEndToEnd(Workload &wl, const Args &a, Tally &tally)
{
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        wl.setup();
        setups.push_back(secondsSince(t0));
    }
    wl.prepare();
    const SortRun warm = attempt([&] { return wl.sort(); });
    tally.add(warm);

    const double gb = static_cast<double>(wl.inputBytes()) / 1e9;
    std::vector<double> mbps, cpu, rss;
    std::size_t sorts = 0;
    const auto start = Clock::now();
    while (sorts < kMinSorts || secondsSince(start) < a.seconds) {
        const SortRun r = forkedSort([&] {
            SortRun x = attempt([&] { return wl.sort(); });
            if (x.error.empty())
                x.error = deterministicDiff(x.stats, warm.stats);
            return x;
        });
        ++sorts;
        tally.add(r);
        if (r.cost.wallSeconds == 0.0)
            continue; // died before finishing: no timing to report
        mbps.push_back(gb * 1e3 / r.cost.wallSeconds);
        cpu.push_back(r.cost.cpuSeconds / gb);
        rss.push_back(r.cost.peakRssMib);
    }
    std::printf("set-ups (s):");
    for (const double v : setups)
        std::printf(" %.3f", v);
    std::printf("\ntimed sorts: %zu (median of each metric reported); "
                "sort_mbps per sort:",
                mbps.size());
    for (const double v : mbps)
        std::printf(" %.1f", v);
    std::printf("\n");
    return {{&kEndToEnd[0], median(mbps)},
            {&kEndToEnd[1], median(cpu)},
            {&kEndToEnd[2], median(rss)},
            {&kEndToEnd[3], wl.writeAmp(warm.stats)},
            {&kEndToEnd[4], median(setups)}};
}

Metrics
runTraced(Workload &wl, const Args &a, Tally &tally)
{
    wl.setup();
    wl.prepare();
    tally.add(attempt([&] { return wl.sort(); }));

    SpanRecorder rec;
    std::map<std::string, std::vector<double>> readings;
    std::vector<double> untraced, traced;
    const double mb = static_cast<double>(wl.inputBytes()) / 1e6;
    std::size_t pairs = 0;
    const auto start = Clock::now();
    while (pairs < kMinPairs || secondsSince(start) < a.seconds) {
        // Alternate which of the pair runs first, so drift within the
        // run does not bias trace.overhead_pct.
        const bool tracedFirst = ++pairs % 2 == 0;
        Readings rd;
        SortRun u, t;
        const auto plainSort = [&] {
            u = attempt([&] { return wl.sort(); });
        };
        const auto tracedSort = [&] {
            rec.clear(); // the trace file keeps the last traced sort
            t = attempt([&] { return wl.tracedSort(rec, rd); });
        };
        if (tracedFirst) {
            tracedSort();
            plainSort();
        } else {
            plainSort();
            tracedSort();
        }
        tally.add(u);
        tally.add(t);
        if (u.cost.wallSeconds == 0.0 || t.cost.wallSeconds == 0.0)
            continue; // one threw: no timing to report
        untraced.push_back(mb / u.cost.wallSeconds);
        traced.push_back(mb / t.cost.wallSeconds);
        for (const auto &[name, value] : rd)
            readings[name].push_back(value);
    }

    const std::vector<bonsai::Record128> packed =
        packedGensort(a.seed, a.records != 0 ? a.records : kInMemRecords);
    LayerInputs in;
    in.packed = &packed;
    in.seed = a.seed;
    in.workDir = kWorkDir;
    in.workload = &wl;
    for (const auto &[name, value] : runLayerMicrobenches(in, rec))
        readings[name].push_back(value);

    const double plain = median(untraced);
    readings["trace.overhead_pct"].push_back(
        100.0 * (plain - median(traced)) / plain);
    readings["error_rate"].push_back(
        static_cast<double>(tally.failed) /
        static_cast<double>(tally.attempted));

    Metrics metrics;
    for (const MetricSpec &spec : kPerLayer) {
        const auto it = readings.find(spec.name);
        // A layer the workload never calls reads 0 (e.g. io.* on
        // inmem_sort).
        metrics.emplace_back(&spec,
                             it == readings.end() ? 0.0 : median(it->second));
        if (it != readings.end())
            readings.erase(it);
    }
    if (!readings.empty())
        throw std::logic_error("reading " + readings.begin()->first +
                               " is not a declared per-layer metric");

    const std::string path = kWorkDir + "/trace-" + a.workload + "-seed" +
        std::to_string(a.seed) + ".json";
    rec.writeChromeTrace(path, {{"workload", a.workload},
                                {"seed", std::to_string(a.seed)}});
    std::printf("traced sorts: %zu; trace written to %s\n", traced.size(),
                path.c_str());
    return metrics;
}

int
run(const Args &a)
{
    const std::string broken = selfTest();
    if (!broken.empty()) {
        std::fprintf(stderr, "sortbench: verifier self-test: %s\n",
                     broken.c_str());
        return 2;
    }
    bonsai::io::createDirectories(kWorkDir);
    WorkloadConfig cfg;
    cfg.name = a.workload;
    cfg.seed = a.seed;
    cfg.records = a.records;
    cfg.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    cfg.workDir = kWorkDir;
    cfg.corrupt = a.corrupt;
    std::unique_ptr<Workload> wl = makeWorkload(cfg);
    if (!wl)
        usage(("unknown workload " + a.workload).c_str());
    std::printf("seed %llu; sort threads %u; input, output and spills "
                "in %s (%s)\n",
                static_cast<unsigned long long>(a.seed), cfg.threads,
                kWorkDir.c_str(), filesystemName(kWorkDir).c_str());

    Tally tally;
    const Metrics metrics =
        a.trace == 1 ? runTraced(*wl, a, tally) : runEndToEnd(*wl, a, tally);
    wl.reset();
    printResult(a, tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "sortbench: %s\n", e.what());
        return 2;
    }
}
