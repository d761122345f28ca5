#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "core/check.h"

namespace sstban::core {

namespace {

std::atomic<int> g_parallelism_cap{0};

// Upper bound on SSTBAN_NUM_THREADS: each worker is an OS thread.
constexpr int kMaxThreads = 256;

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(num_threads, 1)) {
  if (num_threads_ > 1) {
    workers_.reserve(num_threads_);
    for (int i = 0; i < num_threads_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::RunOneTask(std::unique_lock<std::mutex>& lock) {
  if (tasks_.empty()) return false;
  std::function<void()> task = std::move(tasks_.front());
  tasks_.pop();
  lock.unlock();
  task();
  lock.lock();
  cv_.notify_all();
  return true;
}

void ThreadPool::RunAndWait(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    for (auto& task : tasks) task();
    return;
  }
  // Stack-allocated: RunAndWait only returns once remaining hits zero, at
  // which point no wrapped task touches the latch again.
  struct Latch {
    int64_t remaining;
    std::exception_ptr error;
  } latch{static_cast<int64_t>(tasks.size()), nullptr};
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto& task : tasks) {
      tasks_.push([this, &latch, body = std::move(task)] {
        std::exception_ptr error;
        try {
          body();
        } catch (...) {
          error = std::current_exception();
        }
        {
          std::unique_lock<std::mutex> g(mutex_);
          if (error && !latch.error) latch.error = error;
          --latch.remaining;
        }
      });
    }
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  while (latch.remaining > 0) {
    if (!RunOneTask(lock)) cv_.wait(lock);
  }
  lock.unlock();
  if (latch.error) std::rethrow_exception(latch.error);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (shutdown_ && tasks_.empty()) return;
    if (!RunOneTask(lock)) cv_.wait(lock);
  }
}

std::optional<int> ParseNumThreads(const char* text) {
  const char* end = text + std::strlen(text);
  int n = 0;
  auto [ptr, error] = std::from_chars(text, end, n);
  if (error != std::errc() || ptr != end || n < 0 || n > kMaxThreads) {
    return std::nullopt;
  }
  return std::max(n, 1);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    int threads = static_cast<int>(std::thread::hardware_concurrency());
    if (const char* env = std::getenv("SSTBAN_NUM_THREADS")) {
      if (std::optional<int> parsed = ParseNumThreads(env)) {
        threads = *parsed;
      } else {
        std::fprintf(stderr,
                     "[thread_pool] ignoring SSTBAN_NUM_THREADS='%s': want a "
                     "whole number in [0, %d]\n",
                     env, kMaxThreads);
      }
    }
    return new ThreadPool(std::max(threads, 1));
  }();
  return *pool;
}

void SetParallelismCapForTesting(int cap) {
  g_parallelism_cap.store(cap, std::memory_order_relaxed);
}

int EffectiveParallelism() {
  int threads = ThreadPool::Global().num_threads();
  int cap = g_parallelism_cap.load(std::memory_order_relaxed);
  return cap > 0 ? std::min(threads, cap) : threads;
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body,
                 int64_t min_chunk) {
  SSTBAN_CHECK_LE(begin, end);
  int64_t total = end - begin;
  if (total == 0) return;
  if (min_chunk < 1) min_chunk = 1;
  int parallelism = EffectiveParallelism();
  if (parallelism <= 1 || total <= min_chunk) {
    body(begin, end);
    return;
  }
  int64_t chunks =
      std::min<int64_t>(parallelism, (total + min_chunk - 1) / min_chunk);
  int64_t chunk_size = (total + chunks - 1) / chunks;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(chunks));
  for (int64_t c = 0; c < chunks; ++c) {
    int64_t lo = begin + c * chunk_size;
    int64_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    tasks.push_back([&body, lo, hi] { body(lo, hi); });
  }
  ThreadPool::Global().RunAndWait(std::move(tasks));
}

}  // namespace sstban::core
