#ifndef SSTBAN_STREAMING_ADAPTATION_CONTROLLER_H_
#define SSTBAN_STREAMING_ADAPTATION_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"
#include "serving/model_registry.h"
#include "streaming/drift_detector.h"
#include "streaming/online_adapter.h"
#include "streaming/promotion.h"
#include "streaming/stream_ingestor.h"

namespace sstban::streaming {

struct AdaptationControllerOptions {
  StreamIngestorOptions ingest;
  OnlineAdapterOptions adapter;
  // Builds architecture-compatible empty models; backs incumbent cloning for
  // shadow scoring, candidate construction, and rollback.
  serving::ModelRegistry::ModelFactory factory;
};

// What one OnSlice tick amounted to, most significant first.
enum class StreamEvent {
  kIngested = 0,      // slice accepted, nothing else happened
  kDriftSuspect,      // CUSUM tripped, hysteresis pending
  kAdaptFailed,       // drift confirmed but the adaptation round errored
  kPromoted,          // drift -> adapt -> candidate won -> hot-swapped
  kRefused,           // drift -> adapt -> candidate lost (or swap faulted)
  kRolledBack,        // post-promotion live regression, previous weights back
  kGeometryChange,    // slice arrived with a different sensor set (growing
                      // city): refused before it can corrupt the ring —
                      // online adaptation cannot change model geometry
};

const char* StreamEventName(StreamEvent event);

// The drive-everything state machine: feed it one [N, C] slice per step and
// it ingests, shadow-scores the serving incumbent on the newest matured
// window every output_len slices, runs CUSUM drift detection over those
// errors, and on confirmed drift executes
//   clone incumbent -> OnlineAdapter (label-free) -> ShadowScore ->
//   PromotionGate -> (hot-swap | refuse) -> DriftDetector reset,
// then keeps watching the promoted model for post-promotion regression
// (automatic rollback). Fully synchronous and deterministic: the same slice
// sequence produces the same events, adapted weights, and registry versions.
// Thread-compatible; the registry it promotes through is itself thread-safe,
// so a live ForecastServer keeps serving across promotions.
class AdaptationController {
 public:
  // An adaptation round fine-tunes on kAdaptWindows matured windows and
  // scores candidate and incumbent on the kShadowWindows newest ones after
  // them (a temporal holdout).
  static constexpr int64_t kAdaptWindows = 24;
  static constexpr int64_t kShadowWindows = 6;

  AdaptationController(AdaptationControllerOptions options,
                       serving::ModelRegistry* registry);

  // Errors propagate from the ingest boundary (rejected value/timestamp,
  // injected ingest_append fault); every error leaves the pipeline state
  // untouched. A geometry change is an *event*, not an error — it is the
  // growing-city drift scenario, answered with a deliberate refusal.
  core::StatusOr<StreamEvent> OnSlice(const tensor::Tensor& slice,
                                      int64_t step);

  const StreamIngestor& ingestor() const { return ingestor_; }
  const DriftDetector& detector() const { return detector_; }
  const PromotionGate& gate() const { return gate_; }

  int64_t evals() const { return evals_; }
  int64_t adaptation_rounds() const { return rounds_; }
  int64_t adapt_failures() const { return adapt_failures_; }
  int64_t geometry_changes() const { return geometry_changes_; }
  // Most recent incumbent shadow error; NaN before the first eval.
  double last_live_error() const { return last_live_error_; }
  const core::Status& last_adapt_status() const { return last_adapt_status_; }

 private:
  core::StatusOr<StreamEvent> RunAdaptationRound();

  AdaptationControllerOptions options_;
  serving::ModelRegistry* registry_;
  StreamIngestor ingestor_;
  DriftDetector detector_;
  PromotionGate gate_;

  int64_t last_eval_step_ = -1;
  int64_t evals_ = 0;
  int64_t rounds_ = 0;
  int64_t adapt_failures_ = 0;
  int64_t geometry_changes_ = 0;
  double last_live_error_;
  core::Status last_adapt_status_;
};

}  // namespace sstban::streaming

#endif  // SSTBAN_STREAMING_ADAPTATION_CONTROLLER_H_
