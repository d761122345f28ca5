#include "serving/batcher.h"

#include <exception>
#include <utility>

#include "core/check.h"
#include "core/failpoint.h"
#include "core/timer.h"
#include "serving/forecast_server.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"

namespace sstban::serving {

// Completes an expired request without spending any model compute on it.
void Batcher::RejectExpired(PendingRequest* req) {
  req->promise.set_value(core::Status::DeadlineExceeded(
      "deadline passed while the request waited in the queue"));
  stats_->RecordRejectedDeadline();
  overload_->admission().OnTerminal();
}

bool Batcher::Batchable(PendingRequest* req, Clock::time_point now) {
  stats_->RecordQueueWait(
      std::chrono::duration<double>(now - req->enqueued_at).count());
  if (req->Expired(now)) {
    RejectExpired(req);
    return false;
  }
  // Deadline check at dequeue: a remaining budget below the p50
  // batch-execution estimate would burn a batch slot on a guaranteed miss.
  if (overload_->options().enabled && req->request.deadline.has_value()) {
    const double p50 = overload_->service_estimator().P50();
    const double remaining =
        std::chrono::duration<double>(*req->request.deadline - now).count();
    if (p50 > 0.0 && remaining < p50) {
      stats_->RecordSweptPredictedLate();
      RejectExpired(req);
      return false;
    }
  }
  return true;
}

Batcher::Batcher(const ServerOptions& options, RequestQueue* queue,
                 ModelRegistry* registry, ServerStats* stats,
                 FallbackChain* fallback, BatcherWatchdog* watchdog,
                 OverloadControl* overload)
    : options_(options),
      queue_(queue),
      registry_(registry),
      stats_(stats),
      fallback_(fallback),
      watchdog_(watchdog),
      overload_(overload) {
  SSTBAN_CHECK(queue != nullptr);
  SSTBAN_CHECK(registry != nullptr);
  SSTBAN_CHECK(stats != nullptr);
  SSTBAN_CHECK(fallback != nullptr);
  SSTBAN_CHECK(watchdog != nullptr);
  SSTBAN_CHECK(overload != nullptr);
}

Batcher::~Batcher() {
  if (started_ && worker_.joinable()) {
    queue_->Close();
    worker_.join();
  }
}

void Batcher::Start() {
  SSTBAN_CHECK(!started_) << "Batcher started twice";
  started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void Batcher::Join() {
  if (started_ && worker_.joinable()) worker_.join();
}

void Batcher::WorkerLoop() {
  for (;;) {
    // Expired requests never coalesce: anything whose deadline passed while
    // a previous (possibly slow) batch held the worker is terminated with
    // DeadlineExceeded before batch assembly even starts.
    int64_t swept = queue_->SweepExpired(
        Clock::now(), [this](PendingRequest&& req) { RejectExpired(&req); });
    if (swept > 0) stats_->RecordSweptExpired(swept);

    // Block for the batch's first arrival. nullopt means the queue closed
    // and drained: every promise has been fulfilled.
    std::optional<PendingRequest> first = queue_->PopBlocking();
    if (!first.has_value()) return;
    Clock::time_point seeded_at = Clock::now();
    if (!Batchable(&*first, seeded_at)) continue;

    // Every admitted request has the server's window shape, so any arrival
    // joins; keep the batch open up to max_wait for more.
    core::Timer assembly;
    std::vector<PendingRequest> batch;
    batch.push_back(std::move(*first));
    Clock::time_point flush_at = seeded_at + options_.max_wait;
    while (static_cast<int64_t>(batch.size()) < options_.max_batch) {
      std::optional<PendingRequest> popped = queue_->PopUntil(flush_at);
      if (!popped.has_value()) break;
      if (Batchable(&*popped, Clock::now())) {
        batch.push_back(std::move(*popped));
      }
    }
    stats_->UpdateQueueDepth(queue_->depth());
    RunBatch(std::move(batch), assembly.ElapsedSeconds());
  }
}

bool Batcher::RunPrimary(const ModelRegistry::Served& served,
                         const data::Batch& model_batch,
                         const tensor::Tensor& keep_pos,
                         tensor::Tensor* denorm) {
  core::Timer forward;
  // Injected faults, a throwing model, and non-finite output are the same
  // event from the caller's perspective: one failed primary pass, recorded
  // against the breaker.
  core::Status injected = core::FailPointStatus("serve_batch_run");
  bool ok = injected.ok();
  if (ok) {
    try {
      if (keep_pos.defined()) {
        core::StatusOr<tensor::Tensor> masked =
            training::RunBatchedInferenceMasked(served.model.get(),
                                                served.normalizer, model_batch,
                                                keep_pos);
        ok = masked.ok();
        if (ok) *denorm = std::move(masked).value();
      } else {
        *denorm = training::RunBatchedInference(served.model.get(),
                                                served.normalizer, model_batch);
      }
      ok = ok && !tensor::HasNonFinite(*denorm);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (ok) {
    stats_->RecordForward(forward.ElapsedSeconds());
    fallback_->primary_breaker().RecordSuccess();
  } else {
    fallback_->primary_breaker().RecordFailure();
  }
  return ok;
}

void Batcher::RunBatch(std::vector<PendingRequest> batch,
                       double assembly_seconds) {
  stats_->RecordAssembly(assembly_seconds);
  const int64_t b = static_cast<int64_t>(batch.size());
  stats_->RecordBatch(b);
  core::Timer execution;  // feeds the batch-execution estimate

  watchdog_->MarkBatchStart(Clock::now());

  // Pin the served snapshot for the whole batch: a concurrent hot-swap
  // publishes a new snapshot for *later* batches while this one finishes on
  // the weights it started with. An injected registry fault serves the batch
  // from the fallback tiers instead of the model.
  std::shared_ptr<const ModelRegistry::Served> served;
  if (core::FailPointStatus("registry_get").ok()) {
    served = registry_->current();
  }
  if (served != nullptr) {
    if (last_version_ != 0 && served->version != last_version_) {
      stats_->RecordHotSwap();
      // A fresh model must not inherit the old version's failure window.
      fallback_->primary_breaker().OnModelSwapped();
    }
    last_version_ = served->version;
  }

  const int64_t p = options_.input_len;
  const int64_t q = options_.output_len;
  const int64_t n = batch[0].request.recent.dim(1);
  const int64_t c = batch[0].request.recent.dim(2);

  data::Batch model_batch;
  std::vector<tensor::Tensor> parts;
  parts.reserve(batch.size());
  bool any_masked = false;
  for (PendingRequest& req : batch) {
    parts.push_back(req.request.recent.Reshape(tensor::Shape{1, p, n, c}));
    training::AppendCalendarFeatures(req.request.first_step, p, q,
                                     options_.steps_per_day, &model_batch);
    any_masked = any_masked || req.keep_pos.defined();
  }
  model_batch.x = b == 1 ? parts[0] : tensor::Concat(parts, 0);
  model_batch.y = tensor::Tensor::Zeros(tensor::Shape{b, q, n, c});

  // Batched keep mask: clean requests contribute an all-ones [P, N] plane so
  // they can coalesce with degraded ones in a single pass.
  tensor::Tensor keep_pos;
  if (any_masked) {
    std::vector<tensor::Tensor> keeps;
    keeps.reserve(batch.size());
    for (PendingRequest& req : batch) {
      keeps.push_back(req.keep_pos.defined()
                          ? req.keep_pos.Reshape(tensor::Shape{1, p, n})
                          : tensor::Tensor::Ones(tensor::Shape{1, p, n}));
    }
    keep_pos = b == 1 ? keeps[0] : tensor::Concat(keeps, 0);
  }

  // -- Tier 1: the primary model, behind its circuit breaker ------------------
  tensor::Tensor denorm;
  ServedBy served_by = ServedBy::kModel;
  bool primary_ok = false;
  if (served != nullptr && fallback_->primary_breaker().Allow()) {
    primary_ok = RunPrimary(*served, model_batch, keep_pos, &denorm);
  }

  std::vector<tensor::Tensor> slices(static_cast<size_t>(b));
  std::vector<int64_t> cache_ages;  // filled only on the cache tier
  if (primary_ok) {
    // Cutting the batched output back into per-request slices is one small
    // memcpy per request, cheaper inline than handing it to the pool.
    for (int64_t i = 0; i < b; ++i) {
      slices[static_cast<size_t>(i)] =
          tensor::Slice(denorm, 0, i, 1).Reshape(tensor::Shape{q, n, c});
    }
    // The cache entry's logical timestamp is the producing request's
    // first_step; staleness of later fallback serves is measured against it.
    fallback_->cache().Update(slices.back(),
                              batch.back().request.first_step);
  } else {
    std::vector<int64_t> first_steps;
    first_steps.reserve(batch.size());
    for (const PendingRequest& req : batch) {
      first_steps.push_back(req.request.first_step);
    }
    core::Status degraded = fallback_->Run(
        model_batch, served != nullptr ? &served->normalizer : nullptr, q,
        first_steps, &slices, &served_by, &cache_ages);
    if (!degraded.ok()) {
      // The chain itself faulted (serve_fallback injection): the one path
      // where a request terminates Unavailable instead of degraded-Ok.
      Clock::time_point done = Clock::now();
      for (PendingRequest& req : batch) {
        req.promise.set_value(core::Status::Unavailable(
            "model pass failed and fallback chain errored: " +
            degraded.message()));
        stats_->RecordEndToEnd(
            std::chrono::duration<double>(done - req.enqueued_at).count());
        overload_->admission().OnTerminal();
      }
      watchdog_->MarkBatchEnd();
      return;
    }
  }

  const int64_t version =
      served_by == ServedBy::kModel && served != nullptr ? served->version : 0;
  Clock::time_point done = Clock::now();
  for (int64_t i = 0; i < b; ++i) {
    PendingRequest& req = batch[static_cast<size_t>(i)];
    ForecastResponse response;
    response.forecast = std::move(slices[static_cast<size_t>(i)]);
    response.degradation = req.degradation;
    response.served_by = served_by;
    response.masked_positions = req.masked_positions;
    response.model_version = version;
    if (!cache_ages.empty()) {
      response.cache_age_steps = cache_ages[static_cast<size_t>(i)];
    }
    req.promise.set_value(std::move(response));
    stats_->RecordCompleted();
    stats_->RecordDegradation(req.degradation);
    stats_->RecordServedBy(served_by);
    stats_->RecordEndToEnd(
        std::chrono::duration<double>(done - req.enqueued_at).count());
    overload_->admission().OnTerminal();
  }
  overload_->service_estimator().Record(execution.ElapsedSeconds());
  watchdog_->MarkBatchEnd();
}

}  // namespace sstban::serving
