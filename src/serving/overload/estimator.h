#ifndef SSTBAN_SERVING_OVERLOAD_ESTIMATOR_H_
#define SSTBAN_SERVING_OVERLOAD_ESTIMATOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sstban::serving {

// Windowed p50 service-time estimate behind the overload checks: "will this
// request plausibly finish before its deadline?" is answered against the
// median of the last `window` observed service times. Returns 0 until
// `min_samples` observations have arrived, so cold servers and tiny tests
// never reject on a garbage estimate. Record() is called from the batcher
// thread, once per batch, and does not allocate; P50() from any thread
// (atomic read).
class ServiceTimeEstimator {
 public:
  ServiceTimeEstimator(int64_t window, int64_t min_samples);

  void Record(double seconds);

  // Median of the recent window in seconds; 0.0 while under-sampled.
  double P50() const { return p50_.load(std::memory_order_relaxed); }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const int64_t window_;
  const int64_t min_samples_;
  std::atomic<double> p50_{0.0};
  std::atomic<int64_t> count_{0};
  std::mutex mutex_;  // guards the ring and the scratch copy
  std::vector<double> ring_;
  std::vector<double> sorted_;  // the ring, partially sorted for the median
  int64_t next_ = 0;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_ESTIMATOR_H_
