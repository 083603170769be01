#include "measure.hpp"

#include <algorithm>
#include <fstream>
#include <malloc.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/vfs.h>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    if (!clear)
        throw std::runtime_error(
            "cannot reset the peak-RSS mark through "
            "/proc/self/clear_refs");
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    throw std::runtime_error("no VmHWM line in /proc/self/status");
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

std::string
filesystemName(const std::string &path)
{
    struct statfs fs{};
    if (statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
        return "ext4";
    case 0x794C7630UL:
        return "overlay";
    case 0x01021994UL:
        return "tmpfs";
    case 0x58465342UL:
        return "xfs";
    case 0x9123683EUL:
        return "btrfs";
    default:
        return "fs-magic-" + std::to_string(fs.f_type);
    }
}

} // namespace perfbench
