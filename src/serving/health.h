#ifndef SSTBAN_SERVING_HEALTH_H_
#define SSTBAN_SERVING_HEALTH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "serving/request.h"

namespace sstban::serving {

// Liveness signal the batcher thread feeds and the health probe reads: the
// worker brackets each model pass. A batch that has been in flight longer
// than the stall budget while requests keep queueing means the worker is
// wedged (a hung model, a deadlocked pool) — the readiness probe goes false
// and Submit fails fast with Unavailable instead of letting requests pile up
// behind a thread that will never drain them. Lock-free: the worker stores
// one atomic per bracket.
class BatcherWatchdog {
 public:
  // Worker-side signals.
  void MarkBatchStart(Clock::time_point now) {
    batch_started_ns_.store(ToNs(now), std::memory_order_release);
  }
  void MarkBatchEnd() { batch_started_ns_.store(0, std::memory_order_release); }

  // True when a model pass has been running longer than `stall_budget`.
  bool Wedged(std::chrono::milliseconds stall_budget,
              Clock::time_point now = Clock::now()) const;

  // Seconds the current batch has been in flight; 0 when idle.
  double InFlightSeconds(Clock::time_point now = Clock::now()) const;

 private:
  static int64_t ToNs(Clock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp.time_since_epoch())
        .count();
  }

  // Start of the in-flight model pass (ns since clock epoch); 0 = idle.
  std::atomic<int64_t> batch_started_ns_{0};
};

// One health-probe evaluation, in the shape load balancers expect: `live`
// says the process and worker thread exist; `ready` says this replica should
// receive traffic right now.
struct HealthReport {
  bool live = false;
  bool ready = false;
  bool wedged = false;
  bool accepting = false;       // queue open and below capacity
  int64_t model_version = 0;    // 0 = no model installed
  int64_t queue_depth = 0;
  double batch_in_flight_seconds = 0.0;
  std::string primary_breaker;  // "closed" / "open" / "half-open"
  std::string var_breaker;

  // Single-line "status: detail" rendering plus a JSON object, for the
  // sstban_serve front end and scrape-style integrations.
  std::string ToString() const;
  std::string ToJson() const;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_HEALTH_H_
