#ifndef SSTBAN_CORE_MEMORY_TRACKER_H_
#define SSTBAN_CORE_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>

namespace sstban::core {

// Tracks live bytes of tensor storage. The tensor layer reports every
// allocation and free here, so `peak_bytes` measures the activation +
// parameter footprint of a training run — our CPU substitute for the paper's
// "GPU cost (M)" column in Table VII. Also aggregates the StoragePool's
// recycling statistics (hits/misses, recycled bytes, resident free-list
// bytes and their high-water mark) and the underlying heap traffic, so the
// serving stats report and bench_alloc_churn can quantify how much
// allocation work the pool absorbs. Thread-safe.
class MemoryTracker {
 public:
  static MemoryTracker& Global();

  void OnAlloc(int64_t bytes);
  void OnFree(int64_t bytes);

  int64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  // -- Pool statistics (reported by core::StoragePool) -----------------------
  // A request served from a free list (thread-local or global).
  void OnPoolHit(int64_t bytes);
  // A request that fell through to the heap.
  void OnPoolMiss() { pool_misses_.fetch_add(1, std::memory_order_relaxed); }
  // Actual heap traffic (operator new[] calls).
  void OnHeapAlloc() { heap_allocs_.fetch_add(1, std::memory_order_relaxed); }
  // A buffer entered / left the pool's free lists.
  void OnPoolRetain(int64_t bytes);
  void OnPoolDrop(int64_t bytes) {
    pool_resident_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  // Bytes evicted by the LRU resident-size bound.
  void OnPoolTrim(int64_t bytes) {
    pool_trimmed_.fetch_add(bytes, std::memory_order_relaxed);
  }

  int64_t pool_hits() const {
    return pool_hits_.load(std::memory_order_relaxed);
  }
  int64_t pool_misses() const {
    return pool_misses_.load(std::memory_order_relaxed);
  }
  // Cumulative bytes served from recycled buffers instead of the heap.
  int64_t pool_recycled_bytes() const {
    return pool_recycled_.load(std::memory_order_relaxed);
  }
  // Bytes currently parked in the storage pool (LRU list + item caches).
  int64_t pool_resident_bytes() const {
    return pool_resident_.load(std::memory_order_relaxed);
  }
  int64_t pool_peak_resident_bytes() const {
    return pool_peak_resident_.load(std::memory_order_relaxed);
  }
  int64_t pool_trimmed_bytes() const {
    return pool_trimmed_.load(std::memory_order_relaxed);
  }
  int64_t heap_allocs() const {
    return heap_allocs_.load(std::memory_order_relaxed);
  }

  // Resets the peak to the current live size (call at the start of the
  // region being measured).
  void ResetPeak();

 private:
  MemoryTracker() = default;

  static void UpdateMax(std::atomic<int64_t>& peak, int64_t candidate);

  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> peak_{0};

  std::atomic<int64_t> pool_hits_{0};
  std::atomic<int64_t> pool_misses_{0};
  std::atomic<int64_t> pool_recycled_{0};
  std::atomic<int64_t> pool_resident_{0};
  std::atomic<int64_t> pool_peak_resident_{0};
  std::atomic<int64_t> pool_trimmed_{0};
  std::atomic<int64_t> heap_allocs_{0};
};

}  // namespace sstban::core

#endif  // SSTBAN_CORE_MEMORY_TRACKER_H_
