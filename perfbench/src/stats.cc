#include "stats.h"

#include <algorithm>

namespace perfbench {

Quantile NearestRank(std::vector<double> samples, int percent) {
  Quantile q;
  q.count = static_cast<int64_t>(samples.size());
  if (q.count == 0) return q;
  std::sort(samples.begin(), samples.end());
  // ceil(percent * n / 100) in integers, so 95% of 200 is rank 190 exactly.
  int64_t rank = (static_cast<int64_t>(percent) * q.count + 99) / 100;
  rank = std::clamp<int64_t>(rank, 1, q.count);
  q.value = samples[rank - 1];
  q.beyond = q.count - rank;
  return q;
}

double RecordedLatency(bool correct, double latency_ms, double limit_ms) {
  return correct && latency_ms <= limit_ms ? latency_ms : limit_ms;
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50).value;
}

}  // namespace perfbench
