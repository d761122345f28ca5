#ifndef SSTBAN_CORE_STORAGE_POOL_H_
#define SSTBAN_CORE_STORAGE_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sstban::core {

// Size-class-bucketed recycling allocator for tensor storage.
//
// Every intermediate in the autograd graph is a short-lived float buffer,
// and attention-style models produce floods of them in a handful of
// repeating shapes per layer. Instead of a malloc/free pair (plus a
// redundant zero-fill) per op, freed buffers are parked on a free list for
// their size class and handed back to the next request of that class.
//
// Layout of a request of n floats:
//   - n is rounded up to a size class: a 64-float floor, then four
//     geometric classes per power of two (<= ~25% internal fragmentation),
//     so distinct-but-similar shapes share one free list.
//   - Allocate() returns an *uninitialized* buffer; callers that fully
//     overwrite their output (every tensor op in ops.cc) skip the
//     zero-fill entirely. AllocateZeroed() zeroes the requested length for
//     consumers that accumulate into their output (GEMM, conv).
//
// Recycling is two-level:
//   - a lock-free per-thread cache (bounded count/bytes, small buffers
//     only) absorbs the common alloc-free-alloc churn of op evaluation;
//   - a global free list (mutex-protected) catches everything else and is
//     the hand-off point for cross-thread recycling. A thread's cache is
//     migrated to the global list when the thread exits.
//
// The global list is LRU-bounded: when cached-but-free bytes exceed the
// 256 MiB budget the least recently released buffers are returned to the
// heap.
//
// The pool is transparent: buffer contents never depend on where a buffer
// came from (zeroed allocations are zeroed either way; uninitialized
// allocations must be fully written before being read), so results are
// bitwise identical with the pool on or off. SSTBAN_DISABLE_POOL=1 turns
// it into a plain new[]/delete[] pass-through. SSTBAN_POOL_POISON=1 fills
// recycled and freshly handed-out uninitialized buffers with a quiet-NaN
// pattern so reads of never-written or stale memory surface as NaNs (the
// pool keeps buffers alive, which otherwise blinds ASan to
// use-after-recycle).
//
// Statistics (hits/misses, recycled bytes, resident high-water mark, heap
// alloc counts) are reported to core::MemoryTracker.
class StoragePool {
 public:
  static StoragePool& Global();

  StoragePool(const StoragePool&) = delete;
  StoragePool& operator=(const StoragePool&) = delete;

  // Smallest size class holding n floats (pure function of n; the class
  // boundaries never depend on pool state, so allocation sizes are
  // deterministic).
  static int64_t RoundUpCapacity(int64_t n);

  // Returns a buffer of at least `num_elements` floats with unspecified
  // contents. `*capacity` receives the granted capacity in floats; pass it
  // back to Release() unchanged.
  float* Allocate(int64_t num_elements, int64_t* capacity);

  // As Allocate(), but the first `num_elements` floats are zero (the
  // size-class tail beyond them stays unspecified).
  float* AllocateZeroed(int64_t num_elements, int64_t* capacity);

  // Returns a buffer obtained from Allocate()/AllocateZeroed() to the
  // pool. When the pool is disabled the buffer goes straight back to the
  // heap.
  void Release(float* data, int64_t capacity);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Frees every buffer in the global free list and the calling thread's
  // local cache. (Other threads' caches drain when those threads exit.)
  void Flush();

  // -- Test hooks -------------------------------------------------------------
  // Toggles the pool at runtime (flushes first). Lets tests compare
  // pool-on vs pool-off in one process regardless of SSTBAN_DISABLE_POOL.
  void SetEnabledForTesting(bool enabled);
  // Toggles poison-on-recycle regardless of SSTBAN_POOL_POISON.
  void SetPoisonForTesting(bool poison);
  // Overrides the global free-list byte budget; 0 restores the default.
  void SetMaxResidentBytesForTesting(int64_t bytes);

 private:
  struct CachedBuffer {
    float* data;
    int64_t capacity;
  };
  using LruList = std::list<CachedBuffer>;

  StoragePool();
  ~StoragePool() = delete;  // leaked singleton; see Global()

  // Per-thread cache: a few small buffers per class, no locking. Its
  // destructor migrates the cache to the global list at thread exit.
  struct ThreadCache;
  static ThreadCache& LocalCache();

  // Takes a buffer from the global free list; nullptr on miss.
  float* TakeGlobal(int64_t capacity);
  // Parks a buffer on the global free list and trims over-budget LRU
  // entries.
  void InsertGlobal(float* data, int64_t capacity);
  // Migrates a dying thread's cache into the global list.
  void AdoptThreadCache(ThreadCache& cache);

  std::vector<CachedBuffer> TrimOverBudgetLocked();
  static void FreeEvicted(const std::vector<CachedBuffer>& evicted);

  void MaybePoison(float* data, int64_t capacity) const;

  std::atomic<bool> enabled_;
  std::atomic<bool> poison_;

  std::mutex mutex_;
  // Most recently released buffers at the front; trim evicts from the back.
  LruList lru_;
  // capacity -> iterators into lru_, most recently released last (LIFO
  // reuse keeps the hottest buffer in cache).
  std::unordered_map<int64_t, std::vector<LruList::iterator>> classes_;
  int64_t global_resident_bytes_ = 0;
  int64_t max_resident_bytes_;
};

}  // namespace sstban::core

#endif  // SSTBAN_CORE_STORAGE_POOL_H_
