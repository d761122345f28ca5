#include "serving/overload/admission.h"

#include <chrono>

#include "core/check.h"

namespace sstban::serving {

AdmissionController::AdmissionController(bool enabled, int64_t max_batch)
    : enabled_(enabled),
      max_batch_(max_batch),
      limit_(kAdmitBatches * max_batch) {
  SSTBAN_CHECK_GT(max_batch, 0);
}

AdmissionController::Verdict AdmissionController::Admit(
    Clock::time_point now, const std::optional<Clock::time_point>& deadline,
    double batch_p50_seconds) {
  if (!enabled_) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return Verdict::kAdmitted;
  }
  const bool predict = deadline.has_value() && batch_p50_seconds > 0.0;
  const double remaining =
      predict ? std::chrono::duration<double>(*deadline - now).count() : 0.0;
  // CAS loop: the verdict holds for the count it commits against, so two
  // racing Submits cannot both squeeze through one slot.
  int64_t ahead = in_flight_.load(std::memory_order_relaxed);
  do {
    if (ahead >= limit_) return Verdict::kShed;
    if (predict && static_cast<double>(ahead / max_batch_ + 1) *
                           batch_p50_seconds >
                       remaining) {
      return Verdict::kLate;
    }
  } while (!in_flight_.compare_exchange_weak(ahead, ahead + 1,
                                             std::memory_order_relaxed));
  return Verdict::kAdmitted;
}

}  // namespace sstban::serving
