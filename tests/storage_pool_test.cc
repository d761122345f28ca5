#include "core/storage_pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/memory_tracker.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sstban::core {
namespace {

namespace t = ::sstban::tensor;

// The pool and tracker are process-global, so every test starts from a
// flushed pool and takes counter deltas rather than absolute values.
class StoragePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StoragePool::Global().SetEnabledForTesting(true);
    StoragePool::Global().Flush();
  }
  void TearDown() override {
    StoragePool::Global().SetPoisonForTesting(false);
    StoragePool::Global().SetMaxResidentBytesForTesting(0);
    StoragePool::Global().SetEnabledForTesting(true);
  }
};

TEST_F(StoragePoolTest, SizeClassRounding) {
  // Everything up to 64 floats shares the smallest class.
  EXPECT_EQ(StoragePool::RoundUpCapacity(0), 64);
  EXPECT_EQ(StoragePool::RoundUpCapacity(1), 64);
  EXPECT_EQ(StoragePool::RoundUpCapacity(64), 64);
  // Four classes per power of two above that.
  EXPECT_EQ(StoragePool::RoundUpCapacity(65), 80);
  EXPECT_EQ(StoragePool::RoundUpCapacity(80), 80);
  EXPECT_EQ(StoragePool::RoundUpCapacity(81), 96);
  EXPECT_EQ(StoragePool::RoundUpCapacity(100), 112);
  EXPECT_EQ(StoragePool::RoundUpCapacity(128), 128);
  EXPECT_EQ(StoragePool::RoundUpCapacity(129), 160);
  EXPECT_EQ(StoragePool::RoundUpCapacity(1000), 1024);
  EXPECT_EQ(StoragePool::RoundUpCapacity(1025), 1280);
  // Classes are monotone and never smaller than the request; above the
  // 64-float floor the waste is bounded by one step, i.e. < 1/4 of the
  // request.
  for (int64_t n = 1; n < 5000; n += 7) {
    int64_t cap = StoragePool::RoundUpCapacity(n);
    EXPECT_GE(cap, n);
    if (n > 64) {
      EXPECT_LE(cap, n + (n + 3) / 4) << n;
    }
    EXPECT_EQ(StoragePool::RoundUpCapacity(cap), cap) << "classes are fixed points";
  }
}

TEST_F(StoragePoolTest, ReusesBufferAcrossAllocFree) {
  StoragePool& pool = StoragePool::Global();
  int64_t cap = 0;
  float* first = pool.Allocate(1000, &cap);
  EXPECT_EQ(cap, 1024);
  pool.Release(first, cap);
  // Same size class (1000 and 1001 both round to 1024) gets the same
  // buffer back, LIFO.
  int64_t cap2 = 0;
  float* second = pool.Allocate(1001, &cap2);
  EXPECT_EQ(cap2, cap);
  EXPECT_EQ(second, first);
  pool.Release(second, cap2);
  // A different class misses.
  int64_t cap3 = 0;
  float* third = pool.Allocate(300, &cap3);
  EXPECT_NE(third, first);
  pool.Release(third, cap3);
}

TEST_F(StoragePoolTest, LruTrimBoundsResidentBytes) {
  StoragePool& pool = StoragePool::Global();
  MemoryTracker& tracker = MemoryTracker::Global();
  // Releases go straight to the LRU-bounded free list.
  constexpr int64_t kElements = 1 << 18;  // exactly a size class: 1 MiB
  ASSERT_EQ(StoragePool::RoundUpCapacity(kElements), kElements);
  pool.SetMaxResidentBytesForTesting(4 << 20);  // room for 4 buffers
  std::vector<float*> buffers;
  std::vector<int64_t> caps;
  for (int i = 0; i < 6; ++i) {
    int64_t cap = 0;
    buffers.push_back(pool.Allocate(kElements, &cap));
    caps.push_back(cap);
  }
  int64_t trimmed_before = tracker.pool_trimmed_bytes();
  for (int i = 0; i < 6; ++i) pool.Release(buffers[i], caps[i]);
  // Two of the six releases must have been evicted to stay within budget.
  EXPECT_LE(tracker.pool_resident_bytes(), 4 << 20);
  EXPECT_EQ(tracker.pool_trimmed_bytes() - trimmed_before, 2LL << 20);
  // Eviction is LRU: the two oldest releases (buffers[0], buffers[1]) are
  // gone; the four newest are still recyclable.
  std::set<float*> survivors;
  for (int i = 0; i < 4; ++i) {
    int64_t cap = 0;
    survivors.insert(pool.Allocate(kElements, &cap));
  }
  EXPECT_EQ(survivors,
            std::set<float*>(buffers.begin() + 2, buffers.end()));
  for (float* data : survivors) pool.Release(data, kElements);
}

TEST_F(StoragePoolTest, CrossThreadRecycleViaGlobalList) {
  StoragePool& pool = StoragePool::Global();
  // The worker's release goes to the shared free list, so it is
  // immediately visible to this thread.
  constexpr int64_t kElements = 1 << 18;
  float* worker_buffer = nullptr;
  std::thread worker([&] {
    int64_t cap = 0;
    worker_buffer = pool.Allocate(kElements, &cap);
    pool.Release(worker_buffer, cap);
  });
  worker.join();
  int64_t cap = 0;
  float* reused = pool.Allocate(kElements, &cap);
  EXPECT_EQ(reused, worker_buffer);
  pool.Release(reused, cap);
}

// A buffer freed inside ItemScope(0) is parked in item 0's cache: item 0
// gets it back on another thread, and work outside any item does not take
// it. The cache counts toward the one budget: it is filled only while the
// budget has room, and past it an item's buffer goes back to the heap.
TEST_F(StoragePoolTest, ItemCacheFollowsTheItemWithinTheBudget) {
  StoragePool& pool = StoragePool::Global();
  MemoryTracker& tracker = MemoryTracker::Global();
  constexpr int64_t kElements = 1 << 18;  // exactly a size class: 1 MiB
  float* first = nullptr;
  std::thread worker([&] {
    StoragePool::ItemScope scope(0);
    int64_t cap = 0;
    first = pool.Allocate(kElements, &cap);
    pool.Release(first, cap);
  });
  worker.join();
  int64_t cap = 0;
  float* outside = pool.Allocate(kElements, &cap);
  EXPECT_NE(outside, first);
  pool.Release(outside, cap);
  EXPECT_EQ(tracker.pool_resident_bytes(), 2 << 20);
  pool.SetMaxResidentBytesForTesting(1 << 20);  // trims the LRU list
  EXPECT_EQ(tracker.pool_resident_bytes(), 1 << 20);
  {
    StoragePool::ItemScope scope(0);
    int64_t cap_a = 0, cap_b = 0;
    float* again = pool.Allocate(kElements, &cap_a);
    EXPECT_EQ(again, first);
    float* extra = pool.Allocate(kElements, &cap_b);
    pool.Release(again, cap_a);  // fits the budget: item 0's cache
    pool.Release(extra, cap_b);  // does not: back to the heap
  }
  EXPECT_EQ(tracker.pool_resident_bytes(), 1 << 20);
  pool.Flush();
  EXPECT_EQ(tracker.pool_resident_bytes(), 0);
}

TEST_F(StoragePoolTest, StatsAccounting) {
  StoragePool& pool = StoragePool::Global();
  MemoryTracker& tracker = MemoryTracker::Global();
  int64_t hits0 = tracker.pool_hits();
  int64_t misses0 = tracker.pool_misses();
  int64_t recycled0 = tracker.pool_recycled_bytes();
  int64_t heap0 = tracker.heap_allocs();

  int64_t cap = 0;
  float* data = pool.Allocate(200, &cap);  // cold: miss + heap alloc
  EXPECT_EQ(tracker.pool_misses(), misses0 + 1);
  EXPECT_EQ(tracker.heap_allocs(), heap0 + 1);
  EXPECT_EQ(tracker.pool_hits(), hits0);

  int64_t resident0 = tracker.pool_resident_bytes();
  pool.Release(data, cap);
  int64_t cap_bytes = cap * static_cast<int64_t>(sizeof(float));
  EXPECT_EQ(tracker.pool_resident_bytes(), resident0 + cap_bytes);
  EXPECT_GE(tracker.pool_peak_resident_bytes(), resident0 + cap_bytes);

  float* again = pool.Allocate(200, &cap);  // warm: hit, no heap traffic
  EXPECT_EQ(again, data);
  EXPECT_EQ(tracker.pool_hits(), hits0 + 1);
  EXPECT_EQ(tracker.pool_recycled_bytes(), recycled0 + cap_bytes);
  EXPECT_EQ(tracker.heap_allocs(), heap0 + 1);
  EXPECT_EQ(tracker.pool_resident_bytes(), resident0);
  pool.Release(again, cap);
}

TEST_F(StoragePoolTest, DisabledPoolIsPassThrough) {
  StoragePool& pool = StoragePool::Global();
  MemoryTracker& tracker = MemoryTracker::Global();
  pool.SetEnabledForTesting(false);
  int64_t hits0 = tracker.pool_hits();
  int64_t cap = 0;
  float* data = pool.Allocate(1000, &cap);
  EXPECT_EQ(cap, 1000);  // no size-class rounding when disabled
  pool.Release(data, cap);
  float* again = pool.Allocate(1000, &cap);
  pool.Release(again, cap);
  EXPECT_EQ(tracker.pool_hits(), hits0);
  EXPECT_EQ(tracker.pool_resident_bytes(), 0);
  pool.SetEnabledForTesting(true);
}

// A recycled buffer must never alias storage that is still reachable
// through a live tensor: the shared_ptr keeps the Storage (and its pool
// buffer) alive, so the pool cannot have it.
TEST_F(StoragePoolTest, RecycledBufferNeverAliasesLiveTensor) {
  t::Tensor a = t::Tensor::Empty(t::Shape{256});
  a.Fill(1.0f);
  const float* a_data = a.data();

  // While `a` is alive, new allocations of its class must not alias it.
  t::Tensor b = t::Tensor::Empty(t::Shape{256});
  b.Fill(2.0f);
  EXPECT_NE(b.data(), a_data);

  // A view shares the storage; dropping only the original tensor must NOT
  // recycle the buffer (the view still reads it).
  t::Tensor view = a.Reshape(t::Shape{16, 16});
  a = t::Tensor();  // drop one alias; `view` keeps the storage alive
  t::Tensor c = t::Tensor::Empty(t::Shape{256});
  c.Fill(3.0f);
  EXPECT_NE(c.data(), a_data);
  for (int64_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.data()[i], 1.0f) << "live view clobbered via recycled alias";
  }

  // Once the last alias dies the buffer may be recycled — handed out at
  // most once at a time.
  view = t::Tensor();
  t::Tensor d = t::Tensor::Empty(t::Shape{256});
  t::Tensor e = t::Tensor::Empty(t::Shape{256});
  EXPECT_NE(d.data(), e.data());
  d.Fill(4.0f);
  e.Fill(5.0f);
  for (int64_t i = 0; i < 256; ++i) {
    ASSERT_EQ(d.data()[i], 4.0f);
    ASSERT_EQ(e.data()[i], 5.0f);
  }
}

TEST_F(StoragePoolTest, PoisonOnRecycleFillsBufferWithNans) {
  StoragePool& pool = StoragePool::Global();
  pool.SetPoisonForTesting(true);
  int64_t cap = 0;
  float* data = pool.Allocate(128, &cap);
  // Fresh uninitialized memory is poisoned too, so a read-before-write
  // surfaces even on a cold allocation.
  for (int64_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(std::isnan(data[i])) << i;
  }
  std::fill_n(data, cap, 1.0f);
  pool.Release(data, cap);
  float* again = pool.Allocate(128, &cap);
  ASSERT_EQ(again, data);
  for (int64_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(std::isnan(again[i])) << "stale value survived recycle at " << i;
  }
  pool.Release(again, cap);
  // Zeroed allocations stay genuinely zero in poison mode.
  t::Tensor zeros = t::Tensor::Zeros(t::Shape{128});
  for (int64_t i = 0; i < zeros.size(); ++i) {
    ASSERT_EQ(zeros.data()[i], 0.0f);
  }
  pool.SetPoisonForTesting(false);
}

// Tensor-level pipelines behave identically however buffers are sourced.
TEST_F(StoragePoolTest, TensorResultsIdenticalPoolOnVsOff) {
  auto compute = [] {
    core::Rng rng(7);
    t::Tensor x = t::Tensor::RandomNormal(t::Shape{8, 33}, rng);
    t::Tensor y = t::Tensor::RandomNormal(t::Shape{33, 5}, rng);
    t::Tensor z = t::Matmul(x, y);
    z = t::Softmax(z);
    z = t::Mul(z, z);
    return t::Sum(z, 0).ToVector();
  };
  StoragePool::Global().SetEnabledForTesting(true);
  std::vector<float> pooled = compute();
  std::vector<float> pooled_again = compute();  // warm pool: recycled buffers
  StoragePool::Global().SetEnabledForTesting(false);
  std::vector<float> plain = compute();
  StoragePool::Global().SetEnabledForTesting(true);
  ASSERT_EQ(pooled.size(), plain.size());
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], plain[i]) << i;
    EXPECT_EQ(pooled[i], pooled_again[i]) << i;
  }
}

}  // namespace
}  // namespace sstban::core
