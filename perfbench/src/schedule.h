#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

// An open-loop arrival process: every `period`, `burst_size` requests are
// due together, each with a deadline `deadline` after its due time.
// A paced stream is a burst size of one.
struct ArrivalPlan {
  int64_t burst_size = 1;
  std::chrono::nanoseconds period{0};
  std::chrono::nanoseconds deadline{0};
};

// One scheduled request: when it is due (from the start of the measured
// phase) and which window of the generated world it carries.
struct Arrival {
  std::chrono::nanoseconds due{0};
  int64_t window_start = 0;
};

// floor(seconds / period) bursts; each request draws its window start
// uniformly from [0, num_windows). Same arguments, same schedule.
std::vector<Arrival> BuildSchedule(const ArrivalPlan& plan, double seconds,
                                   int64_t num_windows, uint64_t seed);

// `k` distinct indices of [0, n), sorted: the answers recomputed directly.
std::vector<int64_t> RecomputeSample(int64_t n, int64_t k, uint64_t seed);

// The training workload's window order: `windows` shuffled by the seed.
std::vector<int64_t> TrainingOrder(std::vector<int64_t> windows,
                                   uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
