#ifndef SSTBAN_SERVING_FORECAST_SERVER_H_
#define SSTBAN_SERVING_FORECAST_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "baselines/var_model.h"
#include "core/status.h"
#include "serving/batcher.h"
#include "serving/fallback.h"
#include "serving/health.h"
#include "serving/model_registry.h"
#include "serving/overload/overload.h"
#include "serving/request.h"
#include "serving/request_queue.h"
#include "serving/sanitizer.h"
#include "serving/server_stats.h"

namespace sstban::serving {

struct ServerOptions {
  // The served model's window geometry: every request must be exactly
  // [input_len, num_nodes, num_features]. There is no default; Start refuses
  // a server with any of the five left unset (<= 0).
  int64_t input_len = 0;
  int64_t output_len = 0;
  int64_t steps_per_day = 0;
  int64_t num_nodes = 0;
  int64_t num_features = 0;
  // Micro-batching: the most requests coalesced into one model pass, and
  // how long the batcher holds an underfull batch open for more before
  // flushing what it has.
  int64_t max_batch = 8;
  std::chrono::microseconds max_wait{2000};
  // Backpressure bound: Submit sheds load with Unavailable beyond this.
  int64_t queue_capacity = 256;
  // Input-boundary policy for NaN/Inf readings (strict everywhere by
  // default; list degradable channels to enable masked inference).
  SanitizerOptions sanitizer;
  // The degraded tiers behind the primary model: the cache tier's staleness
  // bound (the tiers' circuit breakers run on CircuitBreaker's constants).
  FallbackOptions fallback;
  // A batch in flight longer than this means the worker is wedged: the
  // readiness probe goes false and Submit fails fast with Unavailable.
  std::chrono::milliseconds stall_budget{2000};
  // Overload control: the admission rule at Submit and the dequeue-time
  // deadline check, on one batch-execution estimate (DESIGN §16).
  OverloadOptions overload;
};

// The multi-client inference facade: Submit validates, sanitizes, and
// enqueues a request and returns a future; the batcher coalesces queued
// requests into single batched model passes against whatever version the
// ModelRegistry currently serves, falling back to the VAR baseline or the
// last-known-good cache when the primary tier is broken (see FallbackChain).
// Submit is safe from any number of client threads.
// Lifecycle: Start -> Submit... -> Shutdown (graceful: the queue stops
// accepting, everything already queued is still executed, then the worker
// joins). The registry is borrowed and may be hot-swapped concurrently.
class ForecastServer {
 public:
  ForecastServer(ServerOptions options, ModelRegistry* registry);
  ~ForecastServer();

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  // InvalidArgument, naming the field, when an option is out of range: a
  // geometry field unset, max_batch outside [1, INT64_MAX / kAdmitBatches],
  // queue_capacity below 1 or a negative degradable channel.
  // FailedPrecondition when the registry has no model installed yet.
  core::Status Start();

  // Installs a fitted VAR baseline as the tier-2 fallback (see
  // FallbackChain::SetVarBaseline). Must be called before Start.
  void SetVarBaseline(std::unique_ptr<baselines::VarModel> var);

  // Validates and sanitizes the request and enqueues it. Errors:
  //   InvalidArgument    - window shape mismatch, negative first_step, or a
  //                        NaN/Inf reading on a strict channel
  //   Unavailable        - server not running, shutting down, queue full,
  //                        the batcher watchdog reports a wedged worker, or
  //                        the admission cap is reached
  //   DeadlineExceeded   - the deadline already passed, or the batches
  //                        ahead cannot finish before it
  // On success the future later yields an annotated ForecastResponse (or a
  // terminal error that struck while the request waited).
  core::StatusOr<ForecastFuture> Submit(ForecastRequest request);

  // One readiness/liveness evaluation (cheap; safe from any thread).
  HealthReport CheckHealth() const;

  // Graceful shutdown: stops accepting, drains in-flight requests, joins
  // the worker. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(); }
  const ServerOptions& options() const { return options_; }
  const ServerStats& stats() const { return stats_; }
  const FallbackChain& fallback() const { return fallback_; }
  FallbackChain& fallback() { return fallback_; }
  const BatcherWatchdog& watchdog() const { return watchdog_; }
  const OverloadControl& overload() const { return overload_; }
  OverloadControl& overload() { return overload_; }

 private:
  ServerOptions options_;
  core::Status options_status_;  // what Start returns for `options_`
  ModelRegistry* registry_;
  ServerStats stats_;
  InputSanitizer sanitizer_;
  FallbackChain fallback_;
  BatcherWatchdog watchdog_;
  OverloadControl overload_;
  RequestQueue queue_;
  Batcher batcher_;
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_FORECAST_SERVER_H_
