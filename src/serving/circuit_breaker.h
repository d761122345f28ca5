#ifndef SSTBAN_SERVING_CIRCUIT_BREAKER_H_
#define SSTBAN_SERVING_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "serving/request.h"

namespace sstban::serving {

struct CircuitBreakerOptions {
  // Rolling outcome window the trip condition is evaluated over.
  int64_t window = 32;
  // No tripping before this many outcomes are in the window (a single cold
  // failure must not open the breaker).
  int64_t min_samples = 8;
  // Open when failures / window-size reaches this fraction.
  double error_rate_threshold = 0.5;
  // Open -> half-open probe schedule: first probe after `cooldown`, doubling
  // on every re-trip up to `max_cooldown` (exponential backoff).
  std::chrono::milliseconds cooldown{100};
  std::chrono::milliseconds max_cooldown{5000};
  // Successful probes required in half-open before closing again.
  int64_t probe_successes_to_close = 2;
};

// Per-model-tier circuit breaker: closed passes everything and records
// outcomes; too many failures trip it open, which sheds the tier entirely
// until the cooldown expires; half-open lets a bounded number of probes
// through — success closes, failure re-opens with doubled cooldown. All
// transitions are count- and clock-driven, and the clock is injectable so
// tests are deterministic without sleeping.
//
// Thread-safe; Allow/Record are a short mutex hold each, no allocation once
// the rolling window has filled (it is a fixed-capacity ring after warmup).
class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  using NowFn = std::function<Clock::time_point()>;

  explicit CircuitBreaker(CircuitBreakerOptions options, NowFn now = nullptr);

  // True when a request may use this tier right now. In the open state this
  // is where the cooldown expiry is noticed (transitioning to half-open and
  // admitting one probe); in half-open only `probe_successes_to_close`
  // concurrent probes are admitted.
  bool Allow();

  // Outcome of an admitted request; failures count toward the error rate.
  void RecordSuccess();
  void RecordFailure();

  // The served model changed under us (hot-swap): give the new version a
  // fresh start — clear the rolling window and close.
  void OnModelSwapped();

  State state() const;
  const char* StateName() const;

  struct Stats {
    int64_t trips = 0;        // closed/half-open -> open transitions
    int64_t probes = 0;       // requests admitted while half-open
    int64_t rejected = 0;     // Allow() == false
    int64_t consecutive_trips = 0;  // backoff exponent
  };
  Stats stats() const;

 private:
  void PushOutcomeLocked(bool failed);
  // Evaluates the trip condition over the window; caller holds mutex_.
  void MaybeTripLocked(Clock::time_point now);
  void OpenLocked(Clock::time_point now);

  CircuitBreakerOptions options_;
  NowFn now_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  // Fixed-capacity rolling ring of failure flags (no allocation after
  // construction).
  std::vector<uint8_t> ring_;
  int64_t ring_count_ = 0;
  int64_t ring_head_ = 0;
  int64_t window_failures_ = 0;
  Clock::time_point open_until_{};
  int64_t half_open_in_flight_ = 0;
  int64_t half_open_successes_ = 0;
  Stats stats_;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_CIRCUIT_BREAKER_H_
