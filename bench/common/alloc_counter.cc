#include "common/alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Kept trivially simple (malloc/free pass-through) so the override itself
// cannot distort the measurement.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocs{0};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

// Every replaced operator delete frees through here, out of line: a free()
// inlined into a caller sits next to that caller's operator new, which GCC
// cannot see is malloc and reports as -Wmismatched-new-delete.
[[gnu::noinline]] void Free(void* p) noexcept { std::free(p); }

}  // namespace

namespace sstban::bench {

void StartCountingAllocs() {
  g_allocs.store(0);
  g_counting.store(true);
}

long long StopCountingAllocs() {
  g_counting.store(false);
  return g_allocs.load();
}

}  // namespace sstban::bench

void* operator new(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
