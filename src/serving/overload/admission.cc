#include "serving/overload/admission.h"

#include <algorithm>

namespace sstban::serving {

namespace {

// The limit never climbs past this.
constexpr double kMaxLimit = 4096.0;
// Additive probe on a good batch: limit += kIncrease / limit (a concave
// climb, AIMD-style).
constexpr double kIncrease = 1.0;
// Multiplicative decrease applied on congestion.
constexpr double kDecrease = 0.9;
// Batches per moving-minimum window; the minimum resets every window so a
// permanent latency shift (bigger model, slower host) re-baselines instead of
// reading as permanent congestion.
constexpr int64_t kMinWindow = 128;

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options), limit_(options.initial_limit) {}

bool AdmissionController::Admit() {
  if (!options_.enabled) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const double ceiling = limit_.load(std::memory_order_relaxed);
  // CAS loop so two racing Submits cannot both squeeze through one slot.
  int64_t current = in_flight_.load(std::memory_order_relaxed);
  for (;;) {
    if (static_cast<double>(current) >= ceiling) return false;
    if (in_flight_.compare_exchange_weak(current, current + 1,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
}

void AdmissionController::OnTerminal() {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

void AdmissionController::OnBatchLatency(double seconds) {
  if (!options_.enabled || seconds <= 0.0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  if (window_count_ == 0 || seconds < window_min_) window_min_ = seconds;
  ++window_count_;
  if (current_min_ == 0.0) current_min_ = window_min_;
  if (window_count_ >= kMinWindow) {
    // Roll the window: the new baseline is what the *last* window observed,
    // so a regime change stops reading as congestion within one window.
    current_min_ = window_min_;
    window_count_ = 0;
  }

  double limit = limit_.load(std::memory_order_relaxed);
  if (seconds > options_.tolerance * current_min_) {
    limit *= kDecrease;
    backoffs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    limit += kIncrease / std::max(limit, 1.0);
  }
  limit = std::clamp(limit, options_.min_limit, kMaxLimit);
  limit_.store(limit, std::memory_order_relaxed);
}

AdmissionController::Snapshot AdmissionController::TakeSnapshot() const {
  Snapshot snap;
  snap.enabled = options_.enabled;
  snap.limit = limit_.load(std::memory_order_relaxed);
  snap.in_flight = in_flight_.load(std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    snap.min_latency = current_min_;
  }
  snap.backoffs = backoffs_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace sstban::serving
