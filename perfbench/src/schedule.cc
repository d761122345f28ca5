#include "schedule.h"

#include <algorithm>

#include "core/check.h"
#include "core/rng.h"

namespace perfbench {

// Each use of the seed draws from its own PCG stream, so adding draws to one
// (say, a longer schedule) never shifts another.
namespace {
constexpr uint64_t kScheduleStream = 11;
constexpr uint64_t kRecomputeStream = 12;
constexpr uint64_t kTrainingStream = 13;
}  // namespace

std::vector<Arrival> BuildSchedule(const ArrivalPlan& plan, double seconds,
                                   int64_t num_windows, uint64_t seed) {
  SSTBAN_CHECK_GT(plan.burst_size, 0);
  SSTBAN_CHECK_GT(plan.period.count(), 0);
  SSTBAN_CHECK_GT(num_windows, 0);
  const auto bursts = static_cast<int64_t>(
      seconds * 1e9 / static_cast<double>(plan.period.count()));
  sstban::core::Rng rng(seed, kScheduleStream);
  std::vector<Arrival> schedule;
  schedule.reserve(bursts * plan.burst_size);
  for (int64_t b = 0; b < bursts; ++b) {
    for (int64_t i = 0; i < plan.burst_size; ++i) {
      Arrival a;
      a.due = b * plan.period;
      a.window_start = rng.NextBelow(static_cast<uint32_t>(num_windows));
      schedule.push_back(a);
    }
  }
  return schedule;
}

std::vector<int64_t> RecomputeSample(int64_t n, int64_t k, uint64_t seed) {
  sstban::core::Rng rng(seed, kRecomputeStream);
  std::vector<int64_t> picked =
      rng.SampleWithoutReplacement(n, std::min(n, k));
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::vector<int64_t> TrainingOrder(std::vector<int64_t> windows,
                                   uint64_t seed) {
  sstban::core::Rng rng(seed, kTrainingStream);
  rng.Shuffle(windows);
  return windows;
}

}  // namespace perfbench
