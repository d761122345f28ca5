#include "host.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {
double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessUsage usage;
  usage.user_s = Seconds(ru.ru_utime);
  usage.sys_s = Seconds(ru.ru_stime);
  usage.minor_faults = ru.ru_minflt;
  return usage;
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : static_cast<double>(kib) / 1024.0;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return cpu;
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user, so it is left out of the total.
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return cpu;
  cpu.valid = true;
  cpu.steal = v[7];
  for (unsigned long long x : v) cpu.total += x;
  return cpu;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  if (!before.valid || !after.valid || after.total <= before.total) return -1.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

}  // namespace perfbench
