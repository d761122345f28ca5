#include "serving/circuit_breaker.h"

#include <algorithm>
#include <utility>

namespace sstban::serving {

CircuitBreaker::CircuitBreaker(NowFn now) : now_(std::move(now)) {
  if (now_ == nullptr) now_ = [] { return Clock::now(); };
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      if (now_() < open_until_) {
        ++stats_.rejected;
        return false;
      }
      state_ = State::kHalfOpen;
      half_open_in_flight_ = 1;
      half_open_successes_ = 0;
      ++stats_.probes;
      return true;
    }
    case State::kHalfOpen: {
      if (half_open_in_flight_ >= kProbes) {
        ++stats_.rejected;
        return false;
      }
      ++half_open_in_flight_;
      ++stats_.probes;
      return true;
    }
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::kHalfOpen) {
    half_open_in_flight_ = std::max<int64_t>(half_open_in_flight_ - 1, 0);
    if (++half_open_successes_ >= kProbes) {
      state_ = State::kClosed;
      ring_count_ = 0;
      ring_head_ = 0;
      window_failures_ = 0;
      stats_.consecutive_trips = 0;
    }
    return;
  }
  if (state_ != State::kClosed) return;  // stale in-flight from before a trip
  PushOutcomeLocked(/*failed=*/false);
  MaybeTripLocked(now_());
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::kHalfOpen) {
    half_open_in_flight_ = std::max<int64_t>(half_open_in_flight_ - 1, 0);
    OpenLocked(now_());  // a failed probe re-opens with doubled cooldown
    return;
  }
  if (state_ != State::kClosed) return;
  PushOutcomeLocked(/*failed=*/true);
  MaybeTripLocked(now_());
}

void CircuitBreaker::OnModelSwapped() {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = State::kClosed;
  ring_count_ = 0;
  ring_head_ = 0;
  window_failures_ = 0;
  half_open_in_flight_ = 0;
  half_open_successes_ = 0;
  stats_.consecutive_trips = 0;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

const char* CircuitBreaker::StateName() const {
  switch (state()) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void CircuitBreaker::PushOutcomeLocked(bool failed) {
  if (ring_count_ == kWindow) {
    if (ring_[static_cast<size_t>(ring_head_)] != 0) --window_failures_;
  } else {
    ++ring_count_;
  }
  ring_[static_cast<size_t>(ring_head_)] = failed ? 1 : 0;
  ring_head_ = (ring_head_ + 1) % kWindow;
  if (failed) ++window_failures_;
}

void CircuitBreaker::MaybeTripLocked(Clock::time_point now) {
  if (ring_count_ < kMinSamples) return;
  const double error_rate =
      static_cast<double>(window_failures_) / static_cast<double>(ring_count_);
  if (error_rate >= kTripErrorRate) OpenLocked(now);
}

void CircuitBreaker::OpenLocked(Clock::time_point now) {
  state_ = State::kOpen;
  ++stats_.trips;
  ++stats_.consecutive_trips;
  // Exponential probe backoff, capped: cooldown * 2^(consecutive - 1).
  std::chrono::milliseconds cooldown = kCooldown;
  for (int64_t i = 1; i < stats_.consecutive_trips && cooldown < kMaxCooldown;
       ++i) {
    cooldown *= 2;
  }
  cooldown = std::min(cooldown, kMaxCooldown);
  open_until_ = now + cooldown;
  ring_count_ = 0;
  ring_head_ = 0;
  window_failures_ = 0;
  half_open_in_flight_ = 0;
  half_open_successes_ = 0;
}

}  // namespace sstban::serving
