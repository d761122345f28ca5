#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// One percentile of a sample, with what it rests on: `count` samples in
// all and `beyond` of them strictly above its rank.
struct Quantile {
  double value = 0.0;
  int64_t count = 0;
  int64_t beyond = 0;
};

// A tail is reported only when at least this many samples lie beyond it.
inline constexpr int64_t kMinSamplesBeyondTail = 10;

// Nearest-rank percentile, `percent` in [0, 100]: the sample at rank
// ceil(percent / 100 * n) of the sorted samples (1-based; percent 0 gives
// the minimum). Exact, with no interpolation and no bucketing. An empty
// sample gives {0, 0, 0}.
Quantile NearestRank(std::vector<double> samples, int percent);

inline bool Reportable(const Quantile& q) {
  return q.beyond >= kMinSamplesBeyondTail;
}

// The latency a unit of work contributes to the percentiles: its measured
// latency when it ended in a correct answer within the limit, otherwise the
// limit itself. A refused, failed, wrong or late request is thus a miss
// that sits at the limit, so shedding less can only lower the percentiles.
double RecordedLatency(bool correct, double latency_ms, double limit_ms);

// Median by nearest rank (the lower middle for an even count).
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
