#ifndef SSTBAN_CORE_THREAD_POOL_H_
#define SSTBAN_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace sstban::core {

// A fixed-size worker pool. Its one user inside the library is the item
// split: training::RunBatchedInference[Masked] and training::TrainStep run
// each batch item as one task, and every kernel runs single-threaded on the
// thread that calls it. With num_threads <= 1 there are no workers and
// RunAndWait runs every task inline, in order.
//
// Concurrent calls take turns for free workers, so a serving batch that
// arrives during a training step gets workers as they free up. A thread
// blocked in RunAndWait runs only its own call's unstarted tasks: it
// returns once they are done, and a pool task may itself call RunAndWait
// without deadlocking.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs `tasks` on the pool and blocks until all of them have completed;
  // the first exception thrown by any task is rethrown here once all tasks
  // have finished.
  void RunAndWait(std::vector<std::function<void()>> tasks);

  // Process-wide pool sized from std::thread::hardware_concurrency(), or from
  // SSTBAN_NUM_THREADS when it holds a valid value (see ParseNumThreads).
  static ThreadPool& Global();

 private:
  // One RunAndWait call, guarded by mutex_: its tasks, the next one to hand
  // out, and the latch its caller waits on.
  struct Call {
    std::vector<std::function<void()>> tasks;
    size_t next = 0;
    size_t remaining = 0;
    std::exception_ptr error;
    std::condition_variable done;  // signalled when remaining hits 0
  };

  void WorkerLoop();
  // Runs the next task of `own`, or of the call whose turn it is when `own`
  // is null; `lock` holds mutex_ and is released around the task body.
  // Returns false if there was no task.
  bool RunOneTask(Call* own, std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::deque<Call*> calls_;  // with tasks left to hand out, in turn order
  std::condition_variable work_;  // workers wait for calls or shutdown
  bool shutdown_ = false;
};

// Parses an SSTBAN_NUM_THREADS value. A whole number n in [0, 256] gives
// max(n, 1) workers (0 and 1 both run every task inline); any
// other text, including signs, trailing characters and out-of-range numbers,
// gives nullopt, and the global pool keeps the hardware default.
std::optional<int> ParseNumThreads(const char* text);

}  // namespace sstban::core

#endif  // SSTBAN_CORE_THREAD_POOL_H_
