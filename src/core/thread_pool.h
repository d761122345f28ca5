#ifndef SSTBAN_CORE_THREAD_POOL_H_
#define SSTBAN_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

namespace sstban::core {

// A fixed-size worker pool. On single-core machines (num_threads <= 1) work
// is run inline so the pool adds no overhead; the heavy tensor kernels call
// ParallelFor below and transparently scale with available hardware.
//
// A thread blocked in RunAndWait helps execute queued tasks while it waits,
// so pool tasks may themselves fan out to the pool without deadlocking.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs `tasks` on the pool and blocks until all of them have completed.
  // The caller helps execute queued work while waiting, so RunAndWait may be
  // called from inside a pool task (nested fan-out cannot deadlock). The
  // first exception thrown by any task is rethrown here once all tasks have
  // finished.
  void RunAndWait(std::vector<std::function<void()>> tasks);

  // Process-wide pool sized from std::thread::hardware_concurrency(), or from
  // SSTBAN_NUM_THREADS when it holds a valid value (see ParseNumThreads).
  static ThreadPool& Global();

 private:
  void WorkerLoop();
  // Pops and runs one queued task; `lock` must hold mutex_ and is released
  // around the task body. Returns false if the queue was empty.
  bool RunOneTask(std::unique_lock<std::mutex>& lock);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  // Signalled on task arrival, task completion, and shutdown. Workers and
  // helping waiters share it; everyone re-checks their predicate on wake.
  std::condition_variable cv_;
  bool shutdown_ = false;
};

// Parses an SSTBAN_NUM_THREADS value. A whole number n in [0, 256] gives
// max(n, 1) workers (0 and 1 both run every parallel helper inline); any
// other text, including signs, trailing characters and out-of-range numbers,
// gives nullopt, and the global pool keeps the hardware default.
std::optional<int> ParseNumThreads(const char* text);

// Caps the fan-out ParallelFor uses: 1 forces every loop to run inline on
// the calling thread, 0 removes the cap (use the pool size). Benchmarks use
// this to measure sequential-vs-parallel on the same process, and tests use
// it to verify that results do not depend on the degree of parallelism.
void SetParallelismCapForTesting(int cap);

// Max number of chunks ParallelFor will split a range into (the global pool
// size unless capped by SetParallelismCapForTesting).
int EffectiveParallelism();

// Splits [begin, end) into contiguous chunks and runs `body(chunk_begin,
// chunk_end)` on the global pool, blocking until all chunks finish. Runs
// inline when the range is at most `min_chunk` or only one thread is
// available. `body` must be safe to invoke concurrently on disjoint ranges;
// exceptions thrown by `body` propagate to the caller. Safe to call from
// inside pool tasks (nested calls help drain the queue instead of
// deadlocking).
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body,
                 int64_t min_chunk = 1024);

}  // namespace sstban::core

#endif  // SSTBAN_CORE_THREAD_POOL_H_
