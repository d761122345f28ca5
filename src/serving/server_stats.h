#ifndef SSTBAN_SERVING_SERVER_STATS_H_
#define SSTBAN_SERVING_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/histogram.h"
#include "core/timer.h"
#include "serving/request.h"

namespace sstban::serving {

// Observability for the forecast server: per-stage latency histograms with
// quantile extraction, throughput and rejection counters, queue-depth
// gauges, and the batch-size distribution. Counters are atomics and the
// histograms sit behind one short-lived mutex, so recording stays cheap on
// the request path. All latencies are recorded in seconds.
class ServerStats {
 public:
  ServerStats();

  // -- Stage latencies -------------------------------------------------------
  void RecordQueueWait(double seconds);   // submit -> popped by the batcher
  void RecordAssembly(double seconds);    // first pop -> batch sealed
  void RecordForward(double seconds);     // one batched model pass
  void RecordEndToEnd(double seconds);    // submit -> promise fulfilled

  // -- Counters --------------------------------------------------------------
  void RecordAccepted() { accepted_.fetch_add(1); }
  void RecordCompleted() { completed_.fetch_add(1); }
  void RecordRejectedFull() { rejected_full_.fetch_add(1); }
  void RecordRejectedDeadline() { rejected_deadline_.fetch_add(1); }
  void RecordRejectedInvalid() { rejected_invalid_.fetch_add(1); }
  void RecordHotSwap() { hot_swaps_.fetch_add(1); }

  // -- Resilience counters ---------------------------------------------------
  // Strict-mode sanitizer rejection (NaN/Inf on a non-degradable channel).
  void RecordRejectedNonFinite() {
    rejected_invalid_.fetch_add(1);
    rejected_nonfinite_.fetch_add(1);
  }
  // Submit failed fast because the batcher watchdog reported a wedged worker.
  void RecordRejectedWedged() { rejected_wedged_.fetch_add(1); }
  // Expired requests removed by the pre-batch queue sweep.
  void RecordSweptExpired(int64_t n) { swept_expired_.fetch_add(n); }

  // -- Overload-control counters ---------------------------------------------
  // Push refused because the queue was closed (shutdown, not load shed —
  // kept apart from rejected_full so the two failure modes are tellable).
  void RecordRejectedShutdown() { rejected_shutdown_.fetch_add(1); }
  // Shed at Submit: the in-flight cap is reached.
  void RecordShedAdmission() { shed_admission_.fetch_add(1); }
  // Refused at Submit: the batches ahead end past the deadline.
  void RecordRejectedPredictedLate() { rejected_predicted_late_.fetch_add(1); }
  // Refused at dequeue: remaining budget < one batch-execution p50.
  void RecordSweptPredictedLate() { swept_predicted_late_.fetch_add(1); }
  // One completed request, bucketed by input degradation level.
  void RecordDegradation(DegradationLevel level);
  // One completed request, bucketed by the tier that answered.
  void RecordServedBy(ServedBy tier);

  // One executed batch of the given size (also feeds the distribution).
  void RecordBatch(int64_t batch_size);

  // Gauge update; tracks the high-water mark as a side effect.
  void UpdateQueueDepth(int64_t depth);

  // -- Reporting -------------------------------------------------------------
  struct StageSummary {
    int64_t count = 0;
    double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
  };
  // Process-wide memory picture at snapshot time, read from the global
  // MemoryTracker: live/peak tensor bytes plus the StoragePool's recycling
  // counters (how much allocation work the pool absorbed for the serving
  // hot path).
  struct MemorySummary {
    int64_t live_bytes = 0, peak_bytes = 0;
    int64_t pool_hits = 0, pool_misses = 0;
    double pool_hit_rate = 0.0;  // hits / (hits + misses)
    int64_t pool_recycled_bytes = 0;
    int64_t pool_resident_bytes = 0, pool_peak_resident_bytes = 0;
    int64_t heap_allocs = 0;
  };
  // Circuit-breaker / fallback-chain picture, filled in at snapshot time by
  // the provider the ForecastServer registers (the breakers live in the
  // FallbackChain, not here).
  struct ResilienceSummary {
    bool var_available = false;
    std::string primary_breaker_state = "closed";
    std::string var_breaker_state = "closed";
    int64_t primary_trips = 0, primary_probes = 0, primary_rejected = 0;
    int64_t var_trips = 0, var_probes = 0, var_rejected = 0;
    int64_t cached_sensors = 0;
  };
  using ResilienceProvider = std::function<ResilienceSummary()>;
  void SetResilienceProvider(ResilienceProvider provider);

  // Overload-control picture (admission cap, in-flight count, the batch
  // estimate), filled in at snapshot time by the provider ForecastServer
  // registers — the controller lives in OverloadControl, not here.
  struct OverloadSummary {
    bool admission_enabled = false;
    int64_t admission_limit = 0;
    int64_t in_flight = 0;
    double service_p50_ms = 0.0;  // batch-execution estimate
  };
  using OverloadProvider = std::function<OverloadSummary()>;
  void SetOverloadProvider(OverloadProvider provider);

  struct Snapshot {
    StageSummary queue_wait, assembly, forward, end_to_end;
    int64_t accepted = 0, completed = 0, batches = 0;
    int64_t rejected_full = 0, rejected_deadline = 0, rejected_invalid = 0;
    int64_t hot_swaps = 0;
    int64_t queue_depth = 0, peak_queue_depth = 0;
    std::vector<std::pair<int64_t, int64_t>> batch_sizes;  // (size, count)
    double elapsed_seconds = 0.0;
    double requests_per_second = 0.0;  // completed / elapsed
    // Degraded-request histogram (completed requests per degradation level)
    // and per-tier serve counts.
    int64_t degraded_none = 0, degraded_partial = 0, degraded_heavy = 0;
    int64_t served_model = 0, served_var = 0, served_cache = 0;
    int64_t rejected_nonfinite = 0, rejected_wedged = 0, swept_expired = 0;
    int64_t rejected_shutdown = 0;
    int64_t shed_admission = 0;
    int64_t rejected_predicted_late = 0, swept_predicted_late = 0;
    ResilienceSummary resilience;
    OverloadSummary overload;
    MemorySummary memory;
  };
  Snapshot TakeSnapshot() const;

  // Human-readable text table of the snapshot.
  std::string ReportTable() const;

  // The same snapshot as a single JSON object (machine-readable dump).
  std::string ReportJson() const;

 private:
  core::Timer uptime_;

  mutable std::mutex mutex_;  // guards the histograms and batch_sizes_
  core::Histogram queue_wait_, assembly_, forward_, end_to_end_;
  std::map<int64_t, int64_t> batch_sizes_;

  std::atomic<int64_t> accepted_{0}, completed_{0}, batches_{0};
  std::atomic<int64_t> rejected_full_{0}, rejected_deadline_{0},
      rejected_invalid_{0};
  std::atomic<int64_t> hot_swaps_{0};
  std::atomic<int64_t> queue_depth_{0}, peak_queue_depth_{0};
  std::atomic<int64_t> degraded_none_{0}, degraded_partial_{0},
      degraded_heavy_{0};
  std::atomic<int64_t> served_model_{0}, served_var_{0}, served_cache_{0};
  std::atomic<int64_t> rejected_nonfinite_{0}, rejected_wedged_{0},
      swept_expired_{0};
  std::atomic<int64_t> rejected_shutdown_{0};
  std::atomic<int64_t> shed_admission_{0};
  std::atomic<int64_t> rejected_predicted_late_{0}, swept_predicted_late_{0};
  ResilienceProvider resilience_provider_;  // set before Start, then read-only
  OverloadProvider overload_provider_;      // same lifecycle
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_SERVER_STATS_H_
