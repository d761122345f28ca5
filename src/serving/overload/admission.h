#ifndef SSTBAN_SERVING_OVERLOAD_ADMISSION_H_
#define SSTBAN_SERVING_OVERLOAD_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "serving/request.h"

namespace sstban::serving {

// The in-flight cap, in full batches: the queueing delay a request may be
// admitted into, as CoDel bounds a queue by a target delay. Chosen on
// bench_overload (DESIGN §16.1): four batches refused 2.5-3.4% at 1.0x
// capacity and passed every gate in 3 of 3 runs; three refused over 5% at
// 1.0x, and five broke the 5x p99 bound in 1 of 2.
inline constexpr int64_t kAdmitBatches = 4;

// The admission rule at Submit: a request gets in only if the queue ahead of
// it lets it finish in time. With `ahead` requests in flight (queued plus
// batching), the verdict is
//   - kShed when ahead >= limit() = kAdmitBatches x max_batch;
//   - kLate when the request has a deadline, the batch-execution p50 is warm
//     (> 0) and now + (ahead / max_batch + 1) x p50 (the full batches ahead,
//     then its own) is past that deadline;
//   - kAdmitted otherwise: the request takes an in-flight slot, which the
//     caller releases with exactly one OnTerminal.
// Disabled, every request is admitted (the slot ledger still counts).
// Thread-safe and lock-free.
class AdmissionController {
 public:
  enum class Verdict { kAdmitted, kShed, kLate };

  AdmissionController(bool enabled, int64_t max_batch);

  Verdict Admit(Clock::time_point now,
                const std::optional<Clock::time_point>& deadline,
                double batch_p50_seconds);

  // One admitted request reached its terminal (any status).
  void OnTerminal() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }

  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  // The in-flight cap, kAdmitBatches x max_batch.
  int64_t limit() const { return limit_; }

 private:
  const bool enabled_;
  const int64_t max_batch_;
  const int64_t limit_;
  std::atomic<int64_t> in_flight_{0};
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_ADMISSION_H_
