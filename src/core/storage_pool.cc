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
// Default budget for parked bytes: the LRU list and the item caches.
constexpr int64_t kDefaultMaxResidentBytes = 256LL << 20;  // 256 MiB
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

// Item b's parked buffers. Its mutex is uncontended unless two concurrent
// calls run item b at once.
struct StoragePool::ItemCache {
  std::mutex mutex;
  std::unordered_map<int64_t, std::vector<float*>> buckets;
};

StoragePool::ItemCache*& StoragePool::ScopedCache() {
  static thread_local ItemCache* scoped = nullptr;
  return scoped;
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
  const int64_t cap_bytes = CapacityBytes(cap);
  float* data = nullptr;
  if (ItemCache* cache = ScopedCache()) {
    std::unique_lock<std::mutex> lock(cache->mutex);
    std::vector<float*>& bucket = cache->buckets[cap];
    if (!bucket.empty()) {
      data = bucket.back();
      bucket.pop_back();
      parked_bytes_.fetch_sub(cap_bytes, std::memory_order_relaxed);
    }
  }
  if (data != nullptr || (data = TakeGlobal(cap)) != nullptr) {
    tracker.OnPoolDrop(cap_bytes);
    tracker.OnPoolHit(cap_bytes);
    MaybePoison(data, cap);
    return data;
  }
  tracker.OnPoolMiss();
  tracker.OnHeapAlloc();
  data = new float[static_cast<size_t>(cap)];
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
    delete[] data;
    return;
  }
  MaybePoison(data, capacity);
  const int64_t bytes = CapacityBytes(capacity);
  tracker.OnPoolRetain(bytes);
  // An item caches the buffer while the budget has room; else the LRU
  // list's trim keeps the total within it.
  if (ItemCache* cache = ScopedCache()) {
    if (parked_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes <=
        max_resident_bytes_.load(std::memory_order_relaxed)) {
      std::unique_lock<std::mutex> lock(cache->mutex);
      cache->buckets[capacity].push_back(data);
      return;
    }
    parked_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  InsertGlobal(data, capacity);
}

float* StoragePool::TakeGlobal(int64_t capacity) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = classes_.find(capacity);
  if (it == classes_.end() || it->second.empty()) return nullptr;
  LruList::iterator entry = it->second.back();
  it->second.pop_back();
  float* data = entry->data;
  parked_bytes_.fetch_sub(CapacityBytes(capacity), std::memory_order_relaxed);
  lru_.erase(entry);
  return data;
}

// Evicts least-recently-released buffers from the LRU list until all parked
// bytes fit the budget (or the list is empty). Requires mutex_ held; the
// caller frees the returned buffers outside the lock.
std::vector<StoragePool::CachedBuffer> StoragePool::TrimOverBudgetLocked() {
  std::vector<CachedBuffer> evicted;
  while (parked_bytes_.load(std::memory_order_relaxed) >
             max_resident_bytes_.load(std::memory_order_relaxed) &&
         !lru_.empty()) {
    LruList::iterator victim_it = std::prev(lru_.end());
    CachedBuffer victim = *victim_it;
    std::vector<LruList::iterator>& bucket = classes_[victim.capacity];
    bucket.erase(std::find(bucket.begin(), bucket.end(), victim_it));
    lru_.pop_back();
    parked_bytes_.fetch_sub(CapacityBytes(victim.capacity),
                            std::memory_order_relaxed);
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
    delete[] buf.data;
  }
}

void StoragePool::InsertGlobal(float* data, int64_t capacity) {
  std::vector<CachedBuffer> evicted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    lru_.push_front(CachedBuffer{data, capacity});
    classes_[capacity].push_back(lru_.begin());
    parked_bytes_.fetch_add(CapacityBytes(capacity), std::memory_order_relaxed);
    evicted = TrimOverBudgetLocked();
  }
  FreeEvicted(evicted);
}

StoragePool::ItemScope::ItemScope(int64_t index) : outer_(ScopedCache()) {
  StoragePool& pool = Global();
  std::unique_lock<std::mutex> lock(pool.mutex_);
  const auto i = static_cast<size_t>(index);
  if (pool.item_caches_.size() <= i) pool.item_caches_.resize(i + 1);
  if (pool.item_caches_[i] == nullptr) {
    pool.item_caches_[i] = std::make_unique<ItemCache>();
  }
  ScopedCache() = pool.item_caches_[i].get();
}

StoragePool::ItemScope::~ItemScope() { ScopedCache() = outer_; }

void StoragePool::Flush() {
  auto& tracker = MemoryTracker::Global();
  std::vector<CachedBuffer> drained;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::unique_ptr<ItemCache>& cache : item_caches_) {
      if (cache == nullptr) continue;
      std::unique_lock<std::mutex> cache_lock(cache->mutex);
      for (auto& [capacity, bucket] : cache->buckets) {
        for (float* data : bucket) drained.push_back({data, capacity});
      }
      cache->buckets.clear();
    }
    drained.insert(drained.end(), lru_.begin(), lru_.end());
    lru_.clear();
    classes_.clear();
  }
  for (const CachedBuffer& buf : drained) {
    const int64_t bytes = CapacityBytes(buf.capacity);
    parked_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    tracker.OnPoolDrop(bytes);
    delete[] buf.data;
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
    max_resident_bytes_.store(bytes > 0 ? bytes : kDefaultMaxResidentBytes,
                              std::memory_order_relaxed);
    evicted = TrimOverBudgetLocked();
  }
  FreeEvicted(evicted);
}

}  // namespace sstban::core
