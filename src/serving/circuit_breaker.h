#ifndef SSTBAN_SERVING_CIRCUIT_BREAKER_H_
#define SSTBAN_SERVING_CIRCUIT_BREAKER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>

#include "serving/request.h"

namespace sstban::serving {

// Per-model-tier circuit breaker: closed passes everything and records
// outcomes; too many failures trip it open, which sheds the tier entirely
// until the cooldown expires; half-open lets a bounded number of probes
// through — success closes, failure re-opens with doubled cooldown. All
// transitions are count- and clock-driven, and the clock is injectable so
// tests are deterministic without sleeping.
//
// Thread-safe; Allow/Record are a short mutex hold each and never allocate
// (the rolling window is a fixed array).
class CircuitBreaker {
 public:
  // The trip rule and probe schedule, shared by the primary and VAR tiers
  // (DESIGN §11.2). Open once at least kMinSamples of the last kWindow
  // outcomes are in and kTripErrorRate of them failed; the first probe comes
  // kCooldown later, doubling on every re-trip up to kMaxCooldown; kProbes
  // successful probes close the breaker again.
  static constexpr int64_t kWindow = 32;
  static constexpr int64_t kMinSamples = 8;
  static constexpr double kTripErrorRate = 0.5;
  static constexpr std::chrono::milliseconds kCooldown{100};
  static constexpr std::chrono::milliseconds kMaxCooldown{5000};
  static constexpr int64_t kProbes = 2;

  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  using NowFn = std::function<Clock::time_point()>;

  explicit CircuitBreaker(NowFn now = nullptr);

  // True when a request may use this tier right now. In the open state this
  // is where the cooldown expiry is noticed (transitioning to half-open and
  // admitting one probe); in half-open only kProbes concurrent probes are
  // admitted.
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

  NowFn now_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  // Rolling ring of failure flags.
  std::array<uint8_t, kWindow> ring_{};
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
