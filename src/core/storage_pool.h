#ifndef SSTBAN_CORE_STORAGE_POOL_H_
#define SSTBAN_CORE_STORAGE_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
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
// A buffer freed inside ItemScope(b) is parked in item b's cache, which
// allocations inside ItemScope(b) try first: a warm item split allocates
// nothing from the heap however its items land on threads. Everything else
// goes to one mutex-protected LRU list, which every allocation falls back
// to. Both count toward one 256 MiB budget: an item caches a buffer only
// while the budget has room, and the list returns its least recently
// released buffers to the heap past it.
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
  struct ItemCache;

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

  // Frees every parked buffer: the LRU list and every item cache.
  void Flush();

  // While alive, the calling thread recycles through item `index`'s cache.
  class ItemScope {
   public:
    explicit ItemScope(int64_t index);
    ~ItemScope();
    ItemScope(const ItemScope&) = delete;
    ItemScope& operator=(const ItemScope&) = delete;
   private:
    ItemCache* outer_;
  };

  // -- Test hooks -------------------------------------------------------------
  // Toggles the pool at runtime (flushes first). Lets tests compare
  // pool-on vs pool-off in one process regardless of SSTBAN_DISABLE_POOL.
  void SetEnabledForTesting(bool enabled);
  // Toggles poison-on-recycle regardless of SSTBAN_POOL_POISON.
  void SetPoisonForTesting(bool poison);
  // Overrides the parked-bytes budget; 0 restores the default.
  void SetMaxResidentBytesForTesting(int64_t bytes);

 private:
  struct CachedBuffer {
    float* data;
    int64_t capacity;
  };
  using LruList = std::list<CachedBuffer>;

  StoragePool();
  ~StoragePool() = delete;  // leaked singleton; see Global()

  // The cache of the calling thread's innermost ItemScope, if any.
  static ItemCache*& ScopedCache();
  // Takes a buffer from the LRU list; nullptr on miss.
  float* TakeGlobal(int64_t capacity);
  // Parks a buffer on the LRU list and trims over-budget LRU entries.
  void InsertGlobal(float* data, int64_t capacity);

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
  std::vector<std::unique_ptr<ItemCache>> item_caches_;  // by item index
  std::atomic<int64_t> parked_bytes_{0};  // LRU list and item caches
  std::atomic<int64_t> max_resident_bytes_;
};

}  // namespace sstban::core

#endif  // SSTBAN_CORE_STORAGE_POOL_H_
