#include "core/memory_tracker.h"

namespace sstban::core {

MemoryTracker& MemoryTracker::Global() {
  static MemoryTracker* tracker = new MemoryTracker();
  return *tracker;
}

void MemoryTracker::UpdateMax(std::atomic<int64_t>& peak, int64_t candidate) {
  int64_t prev = peak.load(std::memory_order_relaxed);
  while (candidate > prev &&
         !peak.compare_exchange_weak(prev, candidate,
                                     std::memory_order_relaxed)) {
  }
}

void MemoryTracker::OnAlloc(int64_t bytes) {
  int64_t now = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  UpdateMax(peak_, now);
}

void MemoryTracker::OnFree(int64_t bytes) {
  live_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryTracker::OnPoolHit(int64_t bytes) {
  pool_hits_.fetch_add(1, std::memory_order_relaxed);
  pool_recycled_.fetch_add(bytes, std::memory_order_relaxed);
}

void MemoryTracker::OnPoolRetain(int64_t bytes) {
  int64_t now =
      pool_resident_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  UpdateMax(pool_peak_resident_, now);
}

void MemoryTracker::ResetPeak() {
  peak_.store(live_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace sstban::core
