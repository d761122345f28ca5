#include "streaming/promotion.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/failpoint.h"
#include "training/trainer.h"

namespace sstban::streaming {

namespace {

// Windows per shadow forward.
constexpr int64_t kShadowBatch = 8;

}  // namespace

core::StatusOr<double> ShadowScore(training::TrafficModel* model,
                                   const data::WindowDataset& windows,
                                   const std::vector<int64_t>& indices,
                                   const data::Normalizer& normalizer) {
  SSTBAN_CHECK(model != nullptr);
  SSTBAN_FAILPOINT("shadow_eval");
  if (indices.empty()) {
    return core::Status::InvalidArgument("no shadow windows to score on");
  }
  double mae = 0.0;
  try {
    mae = training::Evaluate(model, windows, indices, normalizer, kShadowBatch)
              .overall.mae;
  } catch (const std::exception& e) {
    return core::Status::Internal(std::string("shadow forward threw: ") +
                                  e.what());
  }
  if (!std::isfinite(mae)) {
    return core::Status::Internal("shadow forward produced non-finite");
  }
  return mae;
}

PromotionGate::PromotionGate(serving::ModelRegistry* registry,
                             serving::ModelRegistry::ModelFactory factory)
    : registry_(registry), factory_(std::move(factory)) {
  SSTBAN_CHECK(registry_ != nullptr);
  SSTBAN_CHECK(factory_ != nullptr);
}

std::unique_ptr<training::TrafficModel> CloneWithWeights(
    const serving::ModelRegistry::ModelFactory& factory,
    const training::TrafficModel& source) {
  std::unique_ptr<training::TrafficModel> clone = factory();
  auto src = source.NamedParameters();
  auto dst = clone->NamedParameters();
  SSTBAN_CHECK_EQ(src.size(), dst.size())
      << "factory architecture differs from the served model";
  for (size_t i = 0; i < src.size(); ++i) {
    SSTBAN_CHECK(src[i].second.value().shape() == dst[i].second.value().shape())
        << "parameter " << src[i].first << " shape mismatch";
    dst[i].second.mutable_value().CopyFrom(src[i].second.value());
  }
  return clone;
}

core::StatusOr<PromotionDecision> PromotionGate::TryPromote(
    std::unique_ptr<training::TrafficModel> candidate,
    const data::WindowDataset& shadow_windows,
    const std::vector<int64_t>& shadow_indices,
    const data::Normalizer& normalizer) {
  SSTBAN_CHECK(candidate != nullptr);
  PromotionDecision decision;
  std::shared_ptr<const serving::ModelRegistry::Served> incumbent =
      registry_->current();
  decision.previous_version = incumbent != nullptr ? incumbent->version : 0;

  // Candidate first: an unscorable candidate refuses immediately, regardless
  // of the incumbent's condition.
  core::StatusOr<double> cand =
      ShadowScore(candidate.get(), shadow_windows, shadow_indices, normalizer);
  if (!cand.ok()) {
    decision.reason = "candidate unscorable: " + cand.status().ToString();
    ++refusals_;
    last_decision_ = decision;
    return decision;
  }
  decision.candidate_score = cand.value();

  // Incumbent scored through a weight-copied clone: the served instance may
  // be running inference on the batcher thread right now, and scoring flips
  // train/eval state. An unscorable incumbent (its forward throws — the
  // failure drift adaptation exists to recover from) counts as infinitely
  // bad, so a healthy candidate can still promote past it.
  double incumbent_score = std::numeric_limits<double>::infinity();
  if (incumbent != nullptr) {
    std::unique_ptr<training::TrafficModel> shadow_incumbent =
        CloneWithWeights(factory_, *incumbent->model);
    core::StatusOr<double> inc = ShadowScore(
        shadow_incumbent.get(), shadow_windows, shadow_indices, normalizer);
    if (inc.ok()) incumbent_score = inc.value();
  }
  decision.incumbent_score = incumbent_score;

  if (decision.candidate_score >= incumbent_score) {
    decision.reason = "candidate did not beat incumbent";
    ++refusals_;
    last_decision_ = decision;
    return decision;
  }

  // The swap itself can fault (promote_swap): rollback-by-not-committing —
  // the incumbent stays installed and the round counts as refused.
  core::Status gate = core::FailPointStatus("promote_swap");
  if (!gate.ok()) {
    decision.reason = "swap fault: " + gate.ToString();
    ++refusals_;
    last_decision_ = decision;
    return decision;
  }

  // Snapshot the incumbent's weights for post-promotion rollback.
  previous_params_.clear();
  if (incumbent != nullptr) {
    auto named = incumbent->model->NamedParameters();
    previous_params_.reserve(named.size());
    for (const auto& [name, param] : named) {
      (void)name;
      previous_params_.push_back(param.value().Clone());
    }
  }

  registry_->Install(std::move(candidate), "online-adapt");
  decision.promoted = true;
  decision.new_version = registry_->current_version();
  promoted_score_ = decision.candidate_score;
  regress_streak_ = 0;
  monitoring_ = incumbent != nullptr;  // nothing to roll back to otherwise
  ++promotions_;
  last_decision_ = decision;
  return decision;
}

bool PromotionGate::ObserveLive(double error) {
  if (!monitoring_) return false;
  const double bound =
      kRollbackFactor * std::max(promoted_score_, kRollbackFloor);
  if (!std::isfinite(error) || error > bound) {
    ++regress_streak_;
  } else {
    regress_streak_ = 0;
  }
  if (regress_streak_ < kRollbackAfter) return false;
  Rollback();
  return true;
}

void PromotionGate::Rollback() {
  // Deliberately failpoint-free: the safety path must not be injectable.
  std::unique_ptr<training::TrafficModel> restored = factory_();
  auto named = restored->NamedParameters();
  SSTBAN_CHECK_EQ(named.size(), previous_params_.size());
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.mutable_value().CopyFrom(previous_params_[i]);
  }
  registry_->Install(std::move(restored), "rollback");
  monitoring_ = false;
  regress_streak_ = 0;
  ++rollbacks_;
}

}  // namespace sstban::streaming
