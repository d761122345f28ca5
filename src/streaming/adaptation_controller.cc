#include "streaming/adaptation_controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.h"

namespace sstban::streaming {

const char* StreamEventName(StreamEvent event) {
  switch (event) {
    case StreamEvent::kIngested: return "ingested";
    case StreamEvent::kDriftSuspect: return "drift-suspect";
    case StreamEvent::kAdaptFailed: return "adapt-failed";
    case StreamEvent::kPromoted: return "promoted";
    case StreamEvent::kRefused: return "refused";
    case StreamEvent::kRolledBack: return "rolled-back";
    case StreamEvent::kGeometryChange: return "geometry-change";
  }
  return "unknown";
}

AdaptationController::AdaptationController(
    AdaptationControllerOptions options, serving::ModelRegistry* registry)
    : options_(std::move(options)),
      registry_(registry),
      ingestor_(options_.ingest),
      gate_(registry, options_.factory),
      last_live_error_(std::numeric_limits<double>::quiet_NaN()) {
  SSTBAN_CHECK(registry_ != nullptr);
  SSTBAN_CHECK(options_.factory != nullptr);
}

core::StatusOr<StreamEvent> AdaptationController::OnSlice(
    const tensor::Tensor& slice, int64_t step) {
  // Geometry change is the growing-city scenario: new sensors attached to
  // the network. Online adaptation cannot change model geometry — that is a
  // retrain-and-redeploy event — so the stream refuses the slice before it
  // can corrupt the ring.
  if (slice.defined() && slice.rank() == 2 &&
      (slice.dim(0) != options_.ingest.num_nodes ||
       slice.dim(1) != options_.ingest.num_features)) {
    ++geometry_changes_;
    return StreamEvent::kGeometryChange;
  }

  SSTBAN_RETURN_IF_ERROR(ingestor_.Append(slice, step));

  // Shadow-score the incumbent on the newest matured window every q slices,
  // so consecutive scores share no forecast horizon; those errors are both
  // the drift detector's input and the post-promotion regression monitor's.
  const int64_t p = options_.ingest.input_len;
  const int64_t q = options_.ingest.output_len;
  if (ingestor_.size() < p + q) return StreamEvent::kIngested;
  if (last_eval_step_ >= 0 && ingestor_.next_step() - last_eval_step_ < q) {
    return StreamEvent::kIngested;
  }
  std::shared_ptr<const serving::ModelRegistry::Served> served =
      registry_->current();
  if (served == nullptr) return StreamEvent::kIngested;
  last_eval_step_ = ingestor_.next_step();

  core::StatusOr<data::TrafficDataset> snapshot = ingestor_.Snapshot(p + q);
  SSTBAN_CHECK(snapshot.ok()) << snapshot.status().ToString();
  auto dataset = std::make_shared<data::TrafficDataset>(
      std::move(snapshot).value());
  data::WindowDataset windows(dataset, p, q);
  std::unique_ptr<training::TrafficModel> shadow_incumbent =
      CloneWithWeights(options_.factory, *served->model);
  core::StatusOr<double> score =
      ShadowScore(shadow_incumbent.get(), windows, {0}, served->normalizer);
  ++evals_;
  // An unscorable incumbent (injected shadow_eval fault, throwing model) is
  // a serving fault, not regime evidence: the breaker/fallback chain owns
  // transient breakage, and the detector's winsorized non-finite handling
  // owns sustained breakage.
  last_live_error_ = score.ok()
                         ? score.value()
                         : std::numeric_limits<double>::infinity();

  if (gate_.ObserveLive(last_live_error_)) {
    // Live regression rolled the previous weights back; the error regime
    // changes again, so the detector re-learns its baseline.
    detector_.Reset();
    return StreamEvent::kRolledBack;
  }

  DriftState state = detector_.Observe(last_live_error_);
  if (state == DriftState::kSuspect) return StreamEvent::kDriftSuspect;
  if (state != DriftState::kDrift) return StreamEvent::kIngested;
  return RunAdaptationRound();
}

core::StatusOr<StreamEvent> AdaptationController::RunAdaptationRound() {
  const int64_t p = options_.ingest.input_len;
  const int64_t q = options_.ingest.output_len;
  std::shared_ptr<const serving::ModelRegistry::Served> served =
      registry_->current();
  SSTBAN_CHECK(served != nullptr);  // drift is only observed while serving
  ++rounds_;

  // Materialize the freshest history: enough windows for adaptation plus the
  // temporal holdout the shadow comparison scores on.
  const int64_t span = kAdaptWindows + kShadowWindows + p + q - 1;
  core::StatusOr<data::TrafficDataset> snapshot = ingestor_.Snapshot(span);
  SSTBAN_CHECK(snapshot.ok()) << snapshot.status().ToString();
  auto dataset = std::make_shared<data::TrafficDataset>(
      std::move(snapshot).value());
  data::WindowDataset windows(dataset, p, q);
  const int64_t total = windows.num_windows();
  const int64_t shadow_n = std::min(kShadowWindows, total);
  std::vector<int64_t> shadow_indices, adapt_indices;
  for (int64_t i = total - shadow_n; i < total; ++i) {
    shadow_indices.push_back(i);
  }
  for (int64_t i = 0; i < total - shadow_n; ++i) adapt_indices.push_back(i);
  if (adapt_indices.empty()) adapt_indices = shadow_indices;

  std::unique_ptr<training::TrafficModel> candidate =
      CloneWithWeights(options_.factory, *served->model);

  // Per-round checkpoint directory: a finished previous round's checkpoint
  // must never resume into (and thereby skip) a new round.
  OnlineAdapterOptions adapter_options = options_.adapter;
  if (!adapter_options.checkpoint_dir.empty()) {
    adapter_options.checkpoint_dir +=
        "/round_" + std::to_string(rounds_);
  }
  OnlineAdapter adapter(adapter_options);
  core::StatusOr<AdaptReport> adapted = adapter.Adapt(
      candidate.get(), windows, adapt_indices, served->normalizer);
  if (!adapted.ok()) {
    ++adapt_failures_;
    last_adapt_status_ = adapted.status();
    // Reset (with cooldown) instead of hot-looping the failed round on every
    // subsequent slice; sustained drift re-confirms after the baseline
    // re-learns.
    detector_.Reset();
    return StreamEvent::kAdaptFailed;
  }
  last_adapt_status_ = core::Status::Ok();

  core::StatusOr<PromotionDecision> decision = gate_.TryPromote(
      std::move(candidate), windows, shadow_indices, served->normalizer);
  detector_.Reset();
  if (!decision.ok()) return decision.status();
  return decision.value().promoted ? StreamEvent::kPromoted
                                   : StreamEvent::kRefused;
}

}  // namespace sstban::streaming
