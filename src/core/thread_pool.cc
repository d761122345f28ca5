#include "core/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace sstban::core {

namespace {

// Upper bound on SSTBAN_NUM_THREADS: each worker is an OS thread.
constexpr int kMaxThreads = 256;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads > 1) {
    workers_.reserve(num_threads);
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::RunOneTask(Call* own, std::unique_lock<std::mutex>& lock) {
  Call* call = own != nullptr ? own : calls_.empty() ? nullptr : calls_.front();
  if (call == nullptr || call->next == call->tasks.size()) return false;
  std::function<void()>& task = call->tasks[call->next++];
  // Calls take turns: the call handing out a task goes to the back.
  calls_.erase(std::find(calls_.begin(), calls_.end(), call));
  if (call->next < call->tasks.size()) calls_.push_back(call);
  lock.unlock();
  std::exception_ptr error;
  try {
    task();
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !call->error) call->error = error;
  // Notified under the lock: once remaining reads 0 the caller may return
  // and destroy `call`, which it cannot do before this thread unlocks.
  if (--call->remaining == 0) call->done.notify_one();
  return true;
}

void ThreadPool::RunAndWait(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    std::exception_ptr error;
    for (auto& task : tasks) {
      try {
        task();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  // Lives on this stack frame: RunAndWait returns only once remaining hits
  // 0, after which no thread touches the call again.
  Call call;
  call.tasks = std::move(tasks);
  call.remaining = call.tasks.size();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    calls_.push_back(&call);
  }
  // The caller runs a task itself; each other task wakes one worker.
  for (size_t i = 1; i < call.tasks.size(); ++i) work_.notify_one();
  std::unique_lock<std::mutex> lock(mutex_);
  while (call.remaining > 0) {
    if (!RunOneTask(&call, lock)) call.done.wait(lock);
  }
  lock.unlock();
  if (call.error) std::rethrow_exception(call.error);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (shutdown_ && calls_.empty()) return;
    if (!RunOneTask(nullptr, lock)) work_.wait(lock);
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

}  // namespace sstban::core
