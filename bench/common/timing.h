#ifndef SSTBAN_BENCH_COMMON_TIMING_H_
#define SSTBAN_BENCH_COMMON_TIMING_H_

#include <algorithm>
#include <chrono>
#include <utility>

namespace sstban::bench {

// Repetition-based timing for the BENCH_*.json snapshots. A single adaptive
// run (what several benches did originally) is noisy: one scheduler hiccup
// lands in the snapshot forever. Instead each measurement runs `reps`
// independent repetitions — every repetition adaptively iterated to a target
// wall time — and reports BOTH the min-of-K (the noise floor, what perf
// comparisons should gate on) and the mean (what users see on average).
struct Timing {
  double mean_s = 0.0;  // mean per-call seconds across repetitions
  double min_s = 0.0;   // fastest repetition's per-call seconds
  int reps = 0;
  int iters = 0;  // iterations per repetition after calibration
};

inline double BenchNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Iterations per repetition: enough back-to-back calls of `fn` to fill
// about `target_rep_seconds`.
template <typename Fn>
int CalibrateIters(Fn& fn, double target_rep_seconds) {
  int iters = 1;
  for (;;) {
    double start = BenchNowSeconds();
    for (int i = 0; i < iters; ++i) fn();
    double elapsed = BenchNowSeconds() - start;
    if (elapsed > target_rep_seconds || iters >= 1 << 16) return iters;
    iters *= 4;
  }
}

// Runs one repetition of `timing->iters` calls and folds its per-call
// seconds into `timing`.
template <typename Fn>
void AddRepetition(Fn& fn, Timing* timing) {
  double start = BenchNowSeconds();
  for (int i = 0; i < timing->iters; ++i) fn();
  double per_call = (BenchNowSeconds() - start) / timing->iters;
  timing->min_s =
      timing->reps == 0 ? per_call : std::min(timing->min_s, per_call);
  timing->mean_s =
      (timing->mean_s * timing->reps + per_call) / (timing->reps + 1);
  ++timing->reps;
}

template <typename Fn>
Timing MeasureSeconds(Fn&& fn, int reps = 5,
                      double target_rep_seconds = 0.05) {
  fn();  // warm-up: thread-pool spin-up, scratch-buffer/arena allocation
  Timing timing;
  timing.iters = CalibrateIters(fn, target_rep_seconds);
  for (int r = 0; r < reps; ++r) AddRepetition(fn, &timing);
  return timing;
}

// Times two functions in alternating repetitions (a, b, a, b, ...), each
// side with its own calibrated iteration count. A burst of host noise then
// lands on samples of both sides instead of on whichever side was running,
// so the ratio of the two min-of-K reads quiet repetitions of each.
template <typename FnA, typename FnB>
std::pair<Timing, Timing> MeasureAlternating(FnA&& fn_a, FnB&& fn_b,
                                             int reps = 9,
                                             double target_rep_seconds = 0.05) {
  fn_a();
  fn_b();
  std::pair<Timing, Timing> timings;
  timings.first.iters = CalibrateIters(fn_a, target_rep_seconds);
  timings.second.iters = CalibrateIters(fn_b, target_rep_seconds);
  for (int r = 0; r < reps; ++r) {
    AddRepetition(fn_a, &timings.first);
    AddRepetition(fn_b, &timings.second);
  }
  return timings;
}

}  // namespace sstban::bench

#endif  // SSTBAN_BENCH_COMMON_TIMING_H_
