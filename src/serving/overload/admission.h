#ifndef SSTBAN_SERVING_OVERLOAD_ADMISSION_H_
#define SSTBAN_SERVING_OVERLOAD_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>

namespace sstban::serving {

struct AdmissionOptions {
  bool enabled = true;
  // Starting concurrency limit (requests in flight: queued + batching).
  double initial_limit = 64.0;
  // The limit never shrinks below this, so a burst of slow batches cannot
  // starve the server into rejecting everything forever.
  double min_limit = 8.0;
  // Congestion threshold: a batch whose end-to-end latency exceeds
  // `tolerance` x the moving-minimum latency signals queue buildup.
  double tolerance = 2.0;
};

// Adaptive concurrency limiter in front of the request queue. The limit is
// steered by per-batch latency (submit -> promise fulfilled, averaged over
// the batch) against a moving minimum over windows of 128 batches: latency
// near the minimum means the queue is empty-ish and the limit climbs by
// 1 / limit; latency beyond tolerance x minimum means requests are queueing
// and the limit shrinks by x0.9. The limit stays within [min_limit, 4096].
//
// Thread-safety: Admit/OnTerminal are lock-free on the hot path;
// OnBatchLatency takes a short mutex (called once per batch).
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  // True = admitted (in-flight incremented; the caller must balance with
  // exactly one OnTerminal). False = shed: the limit is reached.
  bool Admit();

  // One admitted request reached its terminal (any status).
  void OnTerminal();

  // Feed one completed batch's mean end-to-end latency (seconds).
  void OnBatchLatency(double seconds);

  struct Snapshot {
    bool enabled = false;
    double limit = 0.0;
    int64_t in_flight = 0;
    double min_latency = 0.0;  // current moving-minimum (seconds)
    int64_t backoffs = 0;  // multiplicative-decrease events
  };
  Snapshot TakeSnapshot() const;

  int64_t in_flight() const { return in_flight_.load(); }
  double limit() const { return limit_.load(); }

 private:
  const AdmissionOptions options_;
  std::atomic<int64_t> in_flight_{0};
  std::atomic<double> limit_;
  std::atomic<int64_t> backoffs_{0};

  mutable std::mutex mutex_;  // guards the moving-minimum window
  double window_min_ = 0.0;
  int64_t window_count_ = 0;
  double current_min_ = 0.0;  // minimum carried from the last full window
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_ADMISSION_H_
