#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"
#include "core/thread_pool.h"

namespace sstban::core {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, ServingErrorFactories) {
  EXPECT_EQ(Status::Unavailable("full").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint32(), b.NextUint32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, UniformMomentsRoughlyCorrect) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(13);
  std::vector<int64_t> sampled = rng.SampleWithoutReplacement(50, 20);
  std::set<int64_t> unique(sampled.begin(), sampled.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int64_t v : sampled) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(13);
  std::vector<int64_t> sampled = rng.SampleWithoutReplacement(5, 5);
  std::set<int64_t> unique(sampled.begin(), sampled.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int64_t> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int64_t> original = values;
  rng.Shuffle(values);
  std::multiset<int64_t> a(values.begin(), values.end());
  std::multiset<int64_t> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The fork should not replay the parent's sequence.
  Rng parent_again(21);
  parent_again.Fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.NextUint32() == parent.NextUint32()) ++same;
  }
  EXPECT_LT(same, 3);
}

// The serving batcher's forward and the promotion gate's shadow evaluation
// split their batches by item from two threads at once, so RunAndWait must
// stay correct under many concurrent producers issuing repeated rounds: each
// call returns only once its own tasks have all run.
TEST(ThreadPoolTest, StressManyRunAndWaitRoundsFromMultipleProducers) {
  ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kRounds = 50;
  constexpr int kTasksPerRound = 8;
  std::vector<std::atomic<int64_t>> counters(kProducers);
  std::vector<int64_t> short_rounds(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::function<void()>> tasks;
        for (int task = 0; task < kTasksPerRound; ++task) {
          tasks.push_back([&counters, p] { counters[p].fetch_add(1); });
        }
        pool.RunAndWait(std::move(tasks));
        if (counters[p].load() != (round + 1) * kTasksPerRound) {
          ++short_rounds[p];
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(short_rounds[p], 0) << "producer " << p;
    EXPECT_EQ(counters[p].load(), kRounds * kTasksPerRound) << "producer " << p;
  }
}

// Each SSTBAN_NUM_THREADS value maps to a worker count or to nullopt (keep
// the hardware default); no pool is built from these values.
TEST(ThreadPoolTest, ParseNumThreadsAcceptsOnlyWholeNumbersUpTo256) {
  const std::optional<int> kDefault;
  const struct {
    const char* text;
    std::optional<int> workers;
  } cases[] = {
      {"8", 8},          {"1", 1},          {"0", 1},
      {"256", 256},      {"257", kDefault}, {"-3", kDefault},
      {"abc", kDefault}, {"8x", kDefault},  {"", kDefault},
      {"99999999999", kDefault},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ParseNumThreads(c.text), c.workers) << "'" << c.text << "'";
  }
}

// RunAndWait from inside RunAndWait tasks: every level must complete, with
// blocked callers running their own queued tasks instead of idling
// (otherwise a pool whose threads are all blocked in nested waits would
// deadlock).
TEST(ThreadPoolTest, NestedRunAndWaitCompletesAllLevels) {
  ThreadPool pool(2);
  constexpr int kOuter = 6, kInner = 5;
  std::atomic<int> inner_done{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < kOuter; ++i) {
    outer.push_back([&pool, &inner_done] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < kInner; ++j) {
        inner.push_back([&inner_done] {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          inner_done.fetch_add(1);
        });
      }
      pool.RunAndWait(std::move(inner));
    });
  }
  pool.RunAndWait(std::move(outer));
  EXPECT_EQ(inner_done.load(), kOuter * kInner);
}

// A caller blocked in RunAndWait runs its own call's tasks, never another
// call's: a serving batch that arrives while a training step's items hold
// every worker returns once its own window is done, without picking up a
// long item of the step.
TEST(ThreadPoolTest, WaitingCallerRunsOnlyItsOwnTasks) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable changed;
  bool release = false;
  int started = 0;
  int finished = 0;
  // Blocks until released; the timeout makes a pool that runs it on the
  // wrong caller fail the test instead of hanging it.
  auto long_task = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    changed.notify_all();
    changed.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    ++finished;
  };
  std::thread long_caller([&] {
    pool.RunAndWait({long_task, long_task, long_task, long_task});
  });
  {
    // Both workers and the long caller are inside a task; one is queued.
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return started == 3; });
  }
  std::thread::id ran_on;
  pool.RunAndWait({[&] { ran_on = std::this_thread::get_id(); }});
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_EQ(finished, 0);
    release = true;
  }
  changed.notify_all();
  long_caller.join();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(finished, 4);
}

// Concurrent calls take turns for a free worker. Call A (six tasks) holds
// both workers and its own caller; call B (two tasks) arrives, and its
// caller stays in B's first task until B's second has started. Once the
// first worker is released it runs A's next task, then B's second, then
// A's last two: B is not left waiting until A has handed out every task,
// and B's caller, waiting for B's second task, does not take A's.
TEST(ThreadPoolTest, ConcurrentCallsTakeTurnsForAFreeWorker) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable changed;
  std::thread::id caller_a, caller_b, first_worker;
  bool release_first = false, release_rest = false;
  int started_a = 0, started_b = 0;
  std::vector<char> first_worker_order;  // call of each task it ran
  auto task = [&](char call) {
    return [&, call] {
      std::unique_lock<std::mutex> lock(mutex);
      const std::thread::id self = std::this_thread::get_id();
      const bool on_caller = self == caller_a || self == caller_b;
      bool first_task = false;
      if (!on_caller && first_worker == std::thread::id()) {
        first_worker = self;
        first_task = true;
      }
      if (self == first_worker) first_worker_order.push_back(call);
      (call == 'A' ? started_a : started_b) += 1;
      changed.notify_all();
      // Timeouts make a pool that breaks the order fail instead of hang.
      if (first_task) {
        changed.wait_for(lock, std::chrono::seconds(5),
                         [&] { return release_first; });
      } else if (self == caller_b) {
        changed.wait_for(lock, std::chrono::seconds(5),
                         [&] { return started_b == 2; });
      } else if (self == first_worker && call == 'B') {
        lock.unlock();  // B's caller is now idle while A has tasks queued
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      } else if (self != first_worker) {
        changed.wait_for(lock, std::chrono::seconds(5),
                         [&] { return release_rest; });
      }
    };
  };
  std::thread thread_a([&] {
    {
      std::unique_lock<std::mutex> lock(mutex);
      caller_a = std::this_thread::get_id();
    }
    pool.RunAndWait({task('A'), task('A'), task('A'), task('A'), task('A'),
                     task('A')});
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return started_a == 3; });
  }
  std::thread thread_b([&] {
    {
      std::unique_lock<std::mutex> lock(mutex);
      caller_b = std::this_thread::get_id();
    }
    pool.RunAndWait({task('B'), task('B')});
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return started_b == 1; });
    release_first = true;
    changed.notify_all();
    changed.wait_for(lock, std::chrono::seconds(5),
                     [&] { return first_worker_order.size() == 5; });
    release_rest = true;
    changed.notify_all();
  }
  thread_a.join();
  thread_b.join();
  EXPECT_EQ(first_worker_order,
            (std::vector<char>{'A', 'A', 'B', 'A', 'A'}));
}

TEST(ThreadPoolTest, RunAndWaitPropagatesTaskExceptions) {
  // Width 1 has no workers and runs the tasks inline.
  for (int width : {1, 2, 4}) {
    SCOPED_TRACE("width " + std::to_string(width));
    ThreadPool pool(width);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back([i, &completed] {
        if (i == 3) throw std::runtime_error("task 3 failed");
        completed.fetch_add(1);
      });
    }
    EXPECT_THROW(pool.RunAndWait(std::move(tasks)), std::runtime_error);
    // All non-throwing tasks still ran to completion before the rethrow.
    EXPECT_EQ(completed.load(), 5);
  }
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  h.Record(0.010);
  h.Record(0.020);
  h.Record(0.030);
  EXPECT_EQ(h.count(), 3);
  EXPECT_NEAR(h.sum(), 0.060, 1e-9);
  EXPECT_NEAR(h.mean(), 0.020, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 0.010);
  EXPECT_DOUBLE_EQ(h.max(), 0.030);
}

TEST(HistogramTest, QuantilesOrderedAndBracketed) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1e-3);  // 1ms .. 1s
  double p50 = h.Quantile(0.50);
  double p90 = h.Quantile(0.90);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Log-bucketed, so quantiles are approximate: within ~15% of the truth.
  EXPECT_NEAR(p50, 0.500, 0.075);
  EXPECT_NEAR(p90, 0.900, 0.135);
  EXPECT_NEAR(p99, 0.990, 0.150);
}

TEST(HistogramTest, EmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
  h.Record(1.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, TinyAndHugeValuesClampToEdgeBuckets) {
  Histogram h;
  h.Record(1e-12);  // below the lowest bucket
  h.Record(1e9);    // beyond the highest bucket
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1e-12);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1e9);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(StrFormat("%s", "hello"), "hello");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("1,2,,3", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim("\t\r\n "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, JsonEscapePassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("half-open"), "half-open");
  EXPECT_EQ(JsonEscape("p99 = 1.5ms"), "p99 = 1.5ms");
}

TEST(StringUtilTest, JsonEscapeEscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\path\\file"), "C:\\\\path\\\\file");
  EXPECT_EQ(JsonEscape("\\\""), "\\\\\\\"");
}

TEST(StringUtilTest, JsonEscapeEscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("\r\b\f"), "\\r\\b\\f");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string("x\x1f", 2)), "x\\u001f");
}

TEST(StringUtilTest, JsonQuoteWrapsEscapedBody) {
  EXPECT_EQ(JsonQuote("ok"), "\"ok\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote(""), "\"\"");
}

TEST(MemoryTrackerTest, TracksLiveAndPeak) {
  MemoryTracker& tracker = MemoryTracker::Global();
  tracker.ResetPeak();
  int64_t base = tracker.live_bytes();
  tracker.OnAlloc(1000);
  EXPECT_EQ(tracker.live_bytes(), base + 1000);
  EXPECT_GE(tracker.peak_bytes(), base + 1000);
  tracker.OnFree(1000);
  EXPECT_EQ(tracker.live_bytes(), base);
  EXPECT_GE(tracker.peak_bytes(), base + 1000);
}

}  // namespace
}  // namespace sstban::core
