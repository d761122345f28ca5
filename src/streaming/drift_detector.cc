#include "streaming/drift_detector.h"

#include <algorithm>
#include <cmath>

namespace sstban::streaming {

const char* DriftStateName(DriftState state) {
  switch (state) {
    case DriftState::kCooldown: return "cooldown";
    case DriftState::kWarmup: return "warmup";
    case DriftState::kStable: return "stable";
    case DriftState::kSuspect: return "suspect";
    case DriftState::kDrift: return "drift";
  }
  return "unknown";
}

DriftState DriftDetector::Observe(double error) {
  if (state_ == DriftState::kDrift) return state_;
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    state_ = cooldown_left_ > 0 ? DriftState::kCooldown : DriftState::kWarmup;
    return DriftState::kCooldown;
  }
  if (seen_ < kWarmup) {
    // A fault during warmup has no baseline to be winsorized against; folding
    // any stand-in value into the estimate would skew the frozen mean and
    // stddev for the rest of the regime.
    if (!std::isfinite(error)) return state_;
    // Welford accumulation of the baseline.
    ++seen_;
    const double delta = error - mean_;
    mean_ += delta / static_cast<double>(seen_);
    m2_ += delta * (error - mean_);
    if (seen_ == kWarmup) {
      // Future residuals are measured against the *estimated* mean, so their
      // variance is sigma^2 * (1 + 1/W); bake that inflation into the frozen
      // stddev or a W-sample baseline gives the CUSUM a positive drift under
      // pure baseline noise (slack and threshold would both be undersized).
      const double var = m2_ / static_cast<double>(seen_ - 1);
      const double inflate = 1.0 + 1.0 / static_cast<double>(seen_);
      stddev_ = std::sqrt(std::max(var * inflate, 0.0));
      // Floor: a perfectly flat warmup error (tiny deterministic worlds)
      // must not make every later fluctuation register as infinite sigmas.
      stddev_ = std::max(stddev_, 1e-3 * std::max(std::abs(mean_), 1.0));
      state_ = DriftState::kStable;
    } else {
      state_ = DriftState::kWarmup;
    }
    return state_;
  }

  // A fault counts as the largest excess one observation may add, so
  // sustained breakage still confirms.
  if (!std::isfinite(error)) error = mean_ + kClampSigma * stddev_;
  ++post_warmup_;
  const double clamped = std::min(error, mean_ + kClampSigma * stddev_);
  const double excess = clamped - mean_ - kSlackSigma * stddev_;
  cusum_ = std::max(0.0, cusum_ + excess);

  if (cusum_ > kThresholdSigma * stddev_) {
    ++trip_streak_;
    if (trip_streak_ >= kConfirm) {
      state_ = DriftState::kDrift;
      confirmed_after_ = post_warmup_;
    } else {
      state_ = DriftState::kSuspect;
    }
  } else {
    trip_streak_ = 0;
    state_ = DriftState::kStable;
  }
  return state_;
}

double DriftDetector::cusum_sigma() const {
  return stddev_ > 0.0 ? cusum_ / stddev_ : 0.0;
}

void DriftDetector::Reset() {
  *this = DriftDetector();
  cooldown_left_ = kCooldown;
  state_ = DriftState::kCooldown;
}

}  // namespace sstban::streaming
