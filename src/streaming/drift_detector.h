#ifndef SSTBAN_STREAMING_DRIFT_DETECTOR_H_
#define SSTBAN_STREAMING_DRIFT_DETECTOR_H_

#include <cstdint>

namespace sstban::streaming {

enum class DriftState {
  kCooldown = 0,  // post-reset quiet period, observations discarded
  kWarmup,        // learning the error baseline
  kStable,        // statistic at zero
  kSuspect,       // statistic tripped, hysteresis not yet satisfied
  kDrift,         // confirmed; latched until Reset
};

const char* DriftStateName(DriftState state);

// One-sided error-vs-baseline CUSUM over one stream of forecast errors (the
// controller's, one per evaluation window, for the whole network). It
// answers "has the error level sustainably shifted above the baseline
// regime". Deterministic: no clocks, no randomness — the same error sequence
// always produces the same states.
class DriftDetector {
 public:
  // The detector's tuning (DESIGN §15.2), in baseline stddevs where a scale
  // is needed.
  // Finite observations that estimate the baseline (frozen Welford
  // mean/stddev) before accumulation starts.
  static constexpr int64_t kWarmup = 16;
  // CUSUM slack: only error excess beyond mean + kSlackSigma * stddev
  // accumulates, so ordinary fluctuation decays the statistic instead of
  // feeding it.
  static constexpr double kSlackSigma = 0.5;
  // Trip threshold for the accumulated statistic.
  static constexpr double kThresholdSigma = 8.0;
  // Hysteresis: the statistic must stay tripped for this many *consecutive*
  // observations before drift is confirmed. Transient spikes — a breaker
  // trip, one bad batch served by the fallback chain — recover within a
  // window or two and never confirm; only a sustained regime shift does.
  static constexpr int64_t kConfirm = 3;
  // Per-observation accumulation is winsorized here, so a single absurd
  // error (Inf after a fault) cannot trip the statistic alone.
  static constexpr double kClampSigma = 6.0;
  // Observations ignored after Reset before the baseline re-learns — the
  // re-warmed baseline must not be estimated from the adaptation transient
  // itself.
  static constexpr int64_t kCooldown = 8;

  // Records one error observation and returns the new state. Once kDrift is
  // returned the detector latches there (observations are ignored) until
  // Reset. A non-finite error is a serving fault, not evidence about the
  // traffic regime: while the baseline warms it is discarded (it neither
  // counts toward kWarmup nor moves the estimate); after that it counts as
  // the winsorized maximum, so *sustained* breakage still confirms.
  DriftState Observe(double error);

  DriftState state() const { return state_; }
  // Current accumulated statistic, in baseline stddevs.
  double cusum_sigma() const;
  double baseline_mean() const { return mean_; }
  double baseline_stddev() const { return stddev_; }
  // Observations between the end of warmup and the kDrift confirmation;
  // -1 while not confirmed. The bench reports this as windows-to-detect.
  int64_t observations_to_confirm() const { return confirmed_after_; }

  // Clears the statistic *and* the baseline: after an adaptation (or a
  // refused promotion) the error regime changes, so the baseline re-learns
  // behind a cooldown instead of comparing the new model to the old world.
  void Reset();

 private:
  DriftState state_ = DriftState::kWarmup;
  int64_t seen_ = 0;          // warmup observations consumed
  int64_t cooldown_left_ = 0;
  double mean_ = 0.0;         // Welford accumulation during warmup,
  double m2_ = 0.0;           // frozen baseline afterwards
  double stddev_ = 0.0;
  double cusum_ = 0.0;        // in absolute error units
  int64_t trip_streak_ = 0;
  int64_t post_warmup_ = 0;   // observations since the baseline froze
  int64_t confirmed_after_ = -1;
};

}  // namespace sstban::streaming

#endif  // SSTBAN_STREAMING_DRIFT_DETECTOR_H_
