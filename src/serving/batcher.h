#ifndef SSTBAN_SERVING_BATCHER_H_
#define SSTBAN_SERVING_BATCHER_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "serving/fallback.h"
#include "serving/health.h"
#include "serving/model_registry.h"
#include "serving/overload/overload.h"
#include "serving/request.h"
#include "serving/request_queue.h"
#include "serving/server_stats.h"

namespace sstban::serving {

// Defined in serving/forecast_server.h, which includes this header.
struct ServerOptions;

// The micro-batching worker: drains the request queue, coalesces up to the
// server's `max_batch` requests (or flushes after `max_wait`), stacks them
// into a single [B, P, N, C] tensor, runs ONE batched TrafficModel::Predict
// pass on the currently served model, and fulfills each request's promise
// with its annotated [Q, N, C] slice. Submit admits only the server's one
// [P, N, C] shape, so any queued requests batch together.
//
// Resilience behavior layered on top of the happy path:
//   - Every loop iteration sweeps expired requests out of the queue with
//     DeadlineExceeded before they can join a batch.
//   - The primary model pass runs only when the fallback chain's primary
//     circuit breaker admits it, inside a try/catch, and its output is
//     checked for NaN/Inf — a throwing or poisoned model becomes a recorded
//     breaker failure, never a dead worker.
//   - Any primary-tier failure (breaker open, injected fault, exception,
//     non-finite output, registry failure) routes the whole batch through
//     FallbackChain::Run; only a fault injected into the fallback itself
//     yields per-request Unavailable.
//   - Requests carrying a sanitizer keep-mask run through the model's
//     degraded-mode pathway (RunBatchedInferenceMasked) batched together
//     with clean requests.
//   - The watchdog brackets each model pass so health probes can detect a
//     wedged worker.
//
// The loop runs on a dedicated thread rather than a core::ThreadPool slot:
// each batched forward runs its windows as pool tasks
// (training::RunBatchedInference), and a never-finishing loop parked on the
// pool would never let the RunAndWait call that queued it return. One
// batch runs at a time; its window tasks only read the model, so it needs
// no internal synchronization, and hot-swap safety comes from pinning the
// registry snapshot for the duration of each batch.
class Batcher {
 public:
  // `options` is the server's own, read for the batching knobs and the
  // window geometry; it must outlive the batcher. ForecastServer::Start
  // checks it before the worker starts.
  Batcher(const ServerOptions& options, RequestQueue* queue,
          ModelRegistry* registry, ServerStats* stats, FallbackChain* fallback,
          BatcherWatchdog* watchdog, OverloadControl* overload);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  void Start();

  // Returns once the queue is closed and fully drained (every queued
  // request's promise fulfilled) and the worker thread has exited. The queue
  // must already be closed or Join blocks indefinitely.
  void Join();

 private:
  void WorkerLoop();
  // Terminates `req` with DeadlineExceeded (expired, or predicted to miss
  // its deadline given the p50 batch-execution estimate) and releases its
  // admission slot.
  void RejectExpired(PendingRequest* req);
  // Records a just-popped request's queue wait and says whether it may join
  // the batch: false after rejecting it because its deadline passed or its
  // remaining budget is below the p50 batch-execution estimate.
  bool Batchable(PendingRequest* req, Clock::time_point now);
  // Executes one assembled batch; `assembly_seconds` is how long the batch
  // was held open.
  void RunBatch(std::vector<PendingRequest> batch, double assembly_seconds);
  // Runs the primary model pass for `model_batch` ([B, P, N, C] with
  // calendar features; `keep_pos` is [B, P, N] or undefined when every
  // request is clean). Returns false — after recording the breaker outcome —
  // on injected fault, exception, or non-finite output.
  bool RunPrimary(const ModelRegistry::Served& served,
                  const data::Batch& model_batch,
                  const tensor::Tensor& keep_pos, tensor::Tensor* denorm);

  const ServerOptions& options_;
  RequestQueue* queue_;
  ModelRegistry* registry_;
  ServerStats* stats_;
  FallbackChain* fallback_;
  BatcherWatchdog* watchdog_;
  OverloadControl* overload_;
  std::thread worker_;
  bool started_ = false;
  // Last served model version, to notice hot-swaps for the stats and to
  // reset the primary breaker (a fresh model deserves a clean window).
  int64_t last_version_ = 0;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_BATCHER_H_
