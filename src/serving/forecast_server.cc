#include "serving/forecast_server.h"

#include <limits>
#include <utility>

#include "core/failpoint.h"
#include "core/string_util.h"
#include "training/forecast_service.h"

namespace sstban::serving {

namespace {

// A request with more than this fraction of its [P, N] positions masked is
// annotated kHeavy instead of kPartial.
constexpr double kHeavyMaskedFraction = 0.3;

// Ok when the server can run with `options`; otherwise InvalidArgument
// naming the first field at fault.
core::Status CheckOptions(const ServerOptions& options) {
  if (options.input_len <= 0 || options.output_len <= 0 ||
      options.steps_per_day <= 0 || options.num_nodes <= 0 ||
      options.num_features <= 0) {
    return core::Status::InvalidArgument(
        "cannot start: input_len, output_len, steps_per_day, num_nodes and "
        "num_features must all be set (> 0)");
  }
  // The admission limit is kAdmitBatches x max_batch.
  const int64_t max_batch_limit =
      std::numeric_limits<int64_t>::max() / kAdmitBatches;
  if (options.max_batch <= 0 || options.max_batch > max_batch_limit) {
    return core::Status::InvalidArgument(core::StrFormat(
        "cannot start: max_batch must be in [1, %lld], got %lld",
        static_cast<long long>(max_batch_limit),
        static_cast<long long>(options.max_batch)));
  }
  if (options.queue_capacity <= 0) {
    return core::Status::InvalidArgument(core::StrFormat(
        "cannot start: queue_capacity must be > 0, got %lld",
        static_cast<long long>(options.queue_capacity)));
  }
  for (int64_t channel : options.sanitizer.degradable_channels) {
    if (channel < 0) {
      return core::Status::InvalidArgument(core::StrFormat(
          "cannot start: sanitizer.degradable_channels must be >= 0, got "
          "%lld",
          static_cast<long long>(channel)));
    }
  }
  return core::Status::Ok();
}

}  // namespace

ForecastServer::ForecastServer(ServerOptions options, ModelRegistry* registry)
    : options_(options),
      options_status_(CheckOptions(options)),
      registry_(registry),
      // A server that Start will refuse builds its parts for one request and
      // strict channels: their constructors abort on the refused values.
      sanitizer_(options_status_.ok() ? options.sanitizer
                                      : SanitizerOptions()),
      fallback_(options.fallback),
      overload_(options.overload,
                options_status_.ok() ? options.max_batch : 1),
      queue_(options_status_.ok() ? options.queue_capacity : 1),
      batcher_(options_, &queue_, registry, &stats_, &fallback_, &watchdog_,
               &overload_) {
  // Breaker and cache counters live in the fallback chain; hand the stats
  // sink a closure so /stats snapshots can fold them in.
  stats_.SetResilienceProvider([this] {
    ServerStats::ResilienceSummary summary;
    summary.var_available = fallback_.has_var_baseline();
    const CircuitBreaker& primary = fallback_.primary_breaker();
    summary.primary_breaker_state = primary.StateName();
    CircuitBreaker::Stats ps = primary.stats();
    summary.primary_trips = ps.trips;
    summary.primary_probes = ps.probes;
    summary.primary_rejected = ps.rejected;
    const CircuitBreaker& var = fallback_.var_breaker();
    summary.var_breaker_state = var.StateName();
    CircuitBreaker::Stats vs = var.stats();
    summary.var_trips = vs.trips;
    summary.var_probes = vs.probes;
    summary.var_rejected = vs.rejected;
    summary.cached_sensors = fallback_.cache().cached_sensors();
    return summary;
  });
  stats_.SetOverloadProvider([this] {
    ServerStats::OverloadSummary summary;
    summary.admission_enabled = overload_.options().enabled;
    summary.admission_limit = overload_.admission().limit();
    summary.in_flight = overload_.admission().in_flight();
    summary.service_p50_ms = overload_.service_estimator().P50() * 1e3;
    return summary;
  });
}

ForecastServer::~ForecastServer() { Shutdown(); }

core::Status ForecastServer::Start() {
  if (started_) {
    return core::Status::FailedPrecondition("server already started");
  }
  if (!options_status_.ok()) return options_status_;
  if (registry_->current() == nullptr) {
    return core::Status::FailedPrecondition(
        "cannot start: the model registry has no version installed");
  }
  started_ = true;
  running_.store(true);
  batcher_.Start();
  return core::Status::Ok();
}

void ForecastServer::SetVarBaseline(std::unique_ptr<baselines::VarModel> var) {
  fallback_.SetVarBaseline(std::move(var));
}

core::StatusOr<ForecastFuture> ForecastServer::Submit(ForecastRequest request) {
  if (!running_.load()) {
    stats_.RecordRejectedShutdown();
    return core::Status::Unavailable("server is not running");
  }
  // Eagerly reject a deadline that has already passed: letting the sweep
  // find it later would burn a queue slot on work nobody wants.
  const Clock::time_point submit_now = Clock::now();
  if (request.deadline.has_value() && submit_now > *request.deadline) {
    stats_.RecordRejectedDeadline();
    return core::Status::DeadlineExceeded(
        "deadline already expired at submit time");
  }
  // Fail fast rather than queue behind a worker that will never drain: a
  // wedged batcher turns every accepted request into a client-side timeout.
  if (watchdog_.Wedged(options_.stall_budget)) {
    stats_.RecordRejectedWedged();
    return core::Status::Unavailable(core::StrFormat(
        "batcher wedged: current batch in flight for %.3fs (budget %.3fs)",
        watchdog_.InFlightSeconds(),
        std::chrono::duration<double>(options_.stall_budget).count()));
  }
  core::Status valid = training::CheckWindow(
      request.recent, request.first_step, options_.input_len,
      options_.num_nodes, options_.num_features);
  if (!valid.ok()) {
    stats_.RecordRejectedInvalid();
    return valid;
  }

  // -- Admission: only what the queue ahead lets finish in time -------------
  core::Status admit_injected = core::FailPointStatus("overload_admit");
  if (!admit_injected.ok()) {
    stats_.RecordShedAdmission();
    return admit_injected;
  }
  AdmissionController& admission = overload_.admission();
  const double batch_p50 = overload_.service_estimator().P50();
  switch (admission.Admit(submit_now, request.deadline, batch_p50)) {
    case AdmissionController::Verdict::kAdmitted:
      break;
    case AdmissionController::Verdict::kShed:
      stats_.RecordShedAdmission();
      return core::Status::Unavailable(core::StrFormat(
          "admission limit reached (%lld in flight, limit %lld): load shed",
          static_cast<long long>(admission.in_flight()),
          static_cast<long long>(admission.limit())));
    case AdmissionController::Verdict::kLate:
      stats_.RecordRejectedPredictedLate();
      return core::Status::DeadlineExceeded(core::StrFormat(
          "cannot finish before deadline: %.1fms remaining, %lld requests in "
          "flight, batch p50 %.1fms",
          std::chrono::duration<double, std::milli>(*request.deadline -
                                                    submit_now)
              .count(),
          static_cast<long long>(admission.in_flight()), batch_p50 * 1e3));
  }
  // Every path below must balance the admission slot with exactly one
  // OnTerminal — on rejection here, or in the batcher at the terminal.

  PendingRequest pending;
  pending.request = std::move(request);

  // Input boundary: NaN/Inf readings either reject the request (strict
  // channel) or become a keep mask + scrubbed window copy for degraded-mode
  // inference.
  core::StatusOr<SanitizeResult> sanitized =
      sanitizer_.Sanitize(&pending.request.recent);
  if (!sanitized.ok()) {
    admission.OnTerminal();
    stats_.RecordRejectedNonFinite();
    return sanitized.status();
  }
  if (!sanitized.value().clean()) {
    pending.keep_pos = std::move(sanitized.value().keep_pos);
    pending.masked_positions = sanitized.value().masked_positions;
    const double fraction =
        static_cast<double>(sanitized.value().masked_positions) /
        static_cast<double>(sanitized.value().total_positions);
    pending.degradation = fraction > kHeavyMaskedFraction
                              ? DegradationLevel::kHeavy
                              : DegradationLevel::kPartial;
  }

  core::Status injected = core::FailPointStatus("serve_enqueue");
  if (!injected.ok()) {
    admission.OnTerminal();
    stats_.RecordRejectedFull();
    return injected;
  }

  pending.enqueued_at = Clock::now();
  ForecastFuture future = pending.promise.get_future();
  PushReject cause = PushReject::kNone;
  core::Status pushed = queue_.Push(&pending, &cause);
  if (!pushed.ok()) {
    admission.OnTerminal();
    switch (cause) {
      case PushReject::kExpired:
        stats_.RecordRejectedDeadline();
        break;
      case PushReject::kClosed:
        stats_.RecordRejectedShutdown();
        break;
      case PushReject::kFull:
      case PushReject::kNone:
        stats_.RecordRejectedFull();
        break;
    }
    return pushed;
  }
  stats_.RecordAccepted();
  stats_.UpdateQueueDepth(queue_.depth());
  return future;
}

HealthReport ForecastServer::CheckHealth() const {
  HealthReport report;
  report.live = started_ && running_.load();
  report.wedged = watchdog_.Wedged(options_.stall_budget);
  report.accepting =
      report.live && !queue_.closed() && queue_.depth() < queue_.capacity();
  report.model_version = registry_->current_version();
  report.queue_depth = queue_.depth();
  report.batch_in_flight_seconds = watchdog_.InFlightSeconds();
  report.primary_breaker = fallback_.primary_breaker().StateName();
  report.var_breaker = fallback_.var_breaker().StateName();
  report.ready = report.live && report.accepting && !report.wedged &&
                 report.model_version > 0;
  return report;
}

void ForecastServer::Shutdown() {
  if (!started_) return;
  bool was_running = running_.exchange(false);
  queue_.Close();
  if (was_running) batcher_.Join();
}

}  // namespace sstban::serving
