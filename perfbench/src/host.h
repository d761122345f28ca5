#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>

namespace perfbench {

// Process resource usage (getrusage): CPU seconds of every thread of the
// process, and minor page faults.
struct ProcessUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;

  double cpu_s() const { return user_s + sys_s; }
};
ProcessUsage ReadProcessUsage();

// Resets the process's peak resident set size to its current size, so the
// next PeakRssMb covers only what follows (/proc/self/clear_refs).
void ResetPeakRss();
// Peak resident set size (VmHWM) since start or the last reset, in MiB;
// -1 when /proc/self/status cannot be read.
double PeakRssMb();

// The aggregate "cpu" line of /proc/stat, in clock ticks. `valid` is false
// where the file cannot be read; the steal share is then reported as -1.
struct HostCpu {
  bool valid = false;
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();

// Share of the host's CPU time stolen by the hypervisor between two reads:
// the noise the benchmark cannot control, recorded beside its figures.
double StealShare(const HostCpu& before, const HostCpu& after);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
