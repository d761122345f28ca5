#include "serving/overload/estimator.h"

#include <algorithm>

#include "core/check.h"

namespace sstban::serving {

ServiceTimeEstimator::ServiceTimeEstimator(int64_t window, int64_t min_samples)
    : window_(window), min_samples_(min_samples) {
  SSTBAN_CHECK_GT(window, 0);
  ring_.reserve(static_cast<size_t>(window));
  sorted_.reserve(static_cast<size_t>(window));
}

void ServiceTimeEstimator::Record(double seconds) {
  if (seconds < 0.0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  if (static_cast<int64_t>(ring_.size()) < window_) {
    ring_.push_back(seconds);
  } else {
    ring_[static_cast<size_t>(next_)] = seconds;
  }
  next_ = (next_ + 1) % window_;
  const int64_t n = count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n < min_samples_) return;
  // nth_element over <= `window` doubles, once per sample — cheap enough to
  // keep the estimate fresh every time.
  sorted_.assign(ring_.begin(), ring_.end());
  auto mid = sorted_.begin() + sorted_.size() / 2;
  std::nth_element(sorted_.begin(), mid, sorted_.end());
  p50_.store(*mid, std::memory_order_relaxed);
}

}  // namespace sstban::serving
