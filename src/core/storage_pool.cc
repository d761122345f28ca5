#include "core/storage_pool.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "core/memory_tracker.h"

namespace sstban::core {

namespace {

// Smallest class: one cache line's worth of floats times four. Scalars and
// tiny reduction outputs all share this list.
constexpr int64_t kMinClassElements = 64;
// Default budget for free-but-cached bytes on the global list.
constexpr int64_t kDefaultMaxResidentBytes = 256LL << 20;  // 256 MiB
// Per-thread cache limits: only small buffers, a handful per class, so a
// long-lived worker thread can pin at most a couple of MiB.
constexpr int64_t kThreadCacheMaxBufferBytes = 256LL << 10;  // 256 KiB
constexpr int64_t kThreadCacheMaxBytes = 2LL << 20;          // 2 MiB
constexpr size_t kThreadCacheMaxPerClass = 4;
// Quiet NaN with a recognizable payload; any float op on it stays NaN, so
// reads of recycled-or-unwritten memory propagate loudly in poison mode.
constexpr uint32_t kPoisonPattern = 0x7fc0dead;

bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0;
}

int64_t CapacityBytes(int64_t capacity) {
  return capacity * static_cast<int64_t>(sizeof(float));
}

}  // namespace

// The per-thread fast path. Destruction migrates the cache into the global
// list so buffers freed on a short-lived thread stay recyclable.
struct StoragePool::ThreadCache {
  std::unordered_map<int64_t, std::vector<float*>> buckets;
  int64_t bytes = 0;

  ~ThreadCache() { StoragePool::Global().AdoptThreadCache(*this); }
};

StoragePool::ThreadCache& StoragePool::LocalCache() {
  static thread_local ThreadCache cache;
  return cache;
}

StoragePool& StoragePool::Global() {
  // Leaked so Release() stays safe from static and thread_local
  // destructors running at any point of shutdown.
  static StoragePool* pool = new StoragePool();
  return *pool;
}

StoragePool::StoragePool()
    : enabled_(!EnvFlagSet("SSTBAN_DISABLE_POOL")),
      poison_(EnvFlagSet("SSTBAN_POOL_POISON")),
      max_resident_bytes_(kDefaultMaxResidentBytes) {}

int64_t StoragePool::RoundUpCapacity(int64_t n) {
  if (n <= kMinClassElements) return kMinClassElements;
  // Four classes per power of two: round up to a multiple of 2^(ceil(log2
  // n) - 3), e.g. (64, 128] -> {80, 96, 112, 128}.
  int bits = std::bit_width(static_cast<uint64_t>(n - 1));
  int64_t step = int64_t{1} << (bits - 3);
  return (n + step - 1) & ~(step - 1);
}

void StoragePool::MaybePoison(float* data, int64_t capacity) const {
  if (!poison_.load(std::memory_order_relaxed)) return;
  uint32_t* words = reinterpret_cast<uint32_t*>(data);
  std::fill_n(words, capacity, kPoisonPattern);
}

float* StoragePool::Allocate(int64_t num_elements, int64_t* capacity) {
  auto& tracker = MemoryTracker::Global();
  if (!enabled()) {
    *capacity = num_elements;
    tracker.OnHeapAlloc();
    return new float[static_cast<size_t>(num_elements)];
  }
  int64_t cap = RoundUpCapacity(num_elements);
  *capacity = cap;
  int64_t cap_bytes = CapacityBytes(cap);
  // Thread-local fast path.
  ThreadCache& cache = LocalCache();
  auto bucket = cache.buckets.find(cap);
  if (bucket != cache.buckets.end() && !bucket->second.empty()) {
    float* data = bucket->second.back();
    bucket->second.pop_back();
    cache.bytes -= cap_bytes;
    tracker.OnPoolDrop(cap_bytes);
    tracker.OnPoolHit(cap_bytes);
    MaybePoison(data, cap);
    return data;
  }
  if (float* data = TakeGlobal(cap)) {
    tracker.OnPoolDrop(cap_bytes);
    tracker.OnPoolHit(cap_bytes);
    MaybePoison(data, cap);
    return data;
  }
  tracker.OnPoolMiss();
  tracker.OnHeapAlloc();
  float* data = new float[static_cast<size_t>(cap)];
  MaybePoison(data, cap);
  return data;
}

float* StoragePool::AllocateZeroed(int64_t num_elements, int64_t* capacity) {
  float* data = Allocate(num_elements, capacity);
  std::memset(data, 0, static_cast<size_t>(num_elements) * sizeof(float));
  return data;
}

void StoragePool::Release(float* data, int64_t capacity) {
  if (data == nullptr) return;
  auto& tracker = MemoryTracker::Global();
  if (!enabled()) {
    tracker.OnHeapFree();
    delete[] data;
    return;
  }
  MaybePoison(data, capacity);
  int64_t cap_bytes = CapacityBytes(capacity);
  ThreadCache& cache = LocalCache();
  if (cap_bytes <= kThreadCacheMaxBufferBytes &&
      cache.bytes + cap_bytes <= kThreadCacheMaxBytes) {
    std::vector<float*>& bucket = cache.buckets[capacity];
    if (bucket.size() < kThreadCacheMaxPerClass) {
      bucket.push_back(data);
      cache.bytes += cap_bytes;
      tracker.OnPoolRetain(cap_bytes);
      return;
    }
  }
  tracker.OnPoolRetain(cap_bytes);
  InsertGlobal(data, capacity);
}

float* StoragePool::TakeGlobal(int64_t capacity) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = classes_.find(capacity);
  if (it == classes_.end() || it->second.empty()) return nullptr;
  LruList::iterator entry = it->second.back();
  it->second.pop_back();
  float* data = entry->data;
  global_resident_bytes_ -= CapacityBytes(capacity);
  lru_.erase(entry);
  return data;
}

// Evicts least-recently-released buffers until the global list fits the
// budget again. Requires mutex_ held; the caller frees the returned
// buffers outside the lock.
std::vector<StoragePool::CachedBuffer> StoragePool::TrimOverBudgetLocked() {
  std::vector<CachedBuffer> evicted;
  while (global_resident_bytes_ > max_resident_bytes_ && !lru_.empty()) {
    LruList::iterator victim_it = std::prev(lru_.end());
    CachedBuffer victim = *victim_it;
    std::vector<LruList::iterator>& bucket = classes_[victim.capacity];
    bucket.erase(std::find(bucket.begin(), bucket.end(), victim_it));
    lru_.pop_back();
    global_resident_bytes_ -= CapacityBytes(victim.capacity);
    evicted.push_back(victim);
  }
  return evicted;
}

void StoragePool::FreeEvicted(const std::vector<CachedBuffer>& evicted) {
  auto& tracker = MemoryTracker::Global();
  for (const CachedBuffer& buf : evicted) {
    int64_t bytes = CapacityBytes(buf.capacity);
    tracker.OnPoolDrop(bytes);
    tracker.OnPoolTrim(bytes);
    tracker.OnHeapFree();
    delete[] buf.data;
  }
}

void StoragePool::InsertGlobal(float* data, int64_t capacity) {
  std::vector<CachedBuffer> evicted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    lru_.push_front(CachedBuffer{data, capacity});
    classes_[capacity].push_back(lru_.begin());
    global_resident_bytes_ += CapacityBytes(capacity);
    evicted = TrimOverBudgetLocked();
  }
  FreeEvicted(evicted);
}

void StoragePool::AdoptThreadCache(ThreadCache& cache) {
  for (auto& [capacity, bucket] : cache.buckets) {
    // Already counted as pool-resident while in the thread cache, so this
    // migration leaves the tracker's totals unchanged.
    for (float* data : bucket) InsertGlobal(data, capacity);
  }
  cache.buckets.clear();
  cache.bytes = 0;
}

void StoragePool::Flush() {
  auto& tracker = MemoryTracker::Global();
  ThreadCache& cache = LocalCache();
  for (auto& [capacity, bucket] : cache.buckets) {
    for (float* data : bucket) {
      tracker.OnPoolDrop(CapacityBytes(capacity));
      tracker.OnHeapFree();
      delete[] data;
    }
  }
  cache.buckets.clear();
  cache.bytes = 0;
  std::vector<float*> drained;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (CachedBuffer& buf : lru_) {
      tracker.OnPoolDrop(CapacityBytes(buf.capacity));
      drained.push_back(buf.data);
    }
    lru_.clear();
    classes_.clear();
    global_resident_bytes_ = 0;
  }
  for (float* data : drained) {
    tracker.OnHeapFree();
    delete[] data;
  }
}

void StoragePool::SetEnabledForTesting(bool enabled) {
  Flush();
  enabled_.store(enabled, std::memory_order_relaxed);
}

void StoragePool::SetPoisonForTesting(bool poison) {
  poison_.store(poison, std::memory_order_relaxed);
}

void StoragePool::SetMaxResidentBytesForTesting(int64_t bytes) {
  std::vector<CachedBuffer> evicted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    max_resident_bytes_ = bytes > 0 ? bytes : kDefaultMaxResidentBytes;
    evicted = TrimOverBudgetLocked();
  }
  FreeEvicted(evicted);
}

}  // namespace sstban::core
