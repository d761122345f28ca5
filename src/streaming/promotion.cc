#include "streaming/promotion.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/failpoint.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"
#include "training/metrics.h"

namespace sstban::streaming {

namespace t = ::sstban::tensor;

ShadowEvaluator::ShadowEvaluator(ShadowEvaluatorOptions options)
    : options_(options) {
  SSTBAN_CHECK_GT(options_.batch_size, 0);
}

core::StatusOr<double> ShadowEvaluator::Score(
    training::TrafficModel* model, const data::WindowDataset& windows,
    const std::vector<int64_t>& indices,
    const data::Normalizer& normalizer) const {
  SSTBAN_CHECK(model != nullptr);
  SSTBAN_FAILPOINT("shadow_eval");
  if (indices.empty()) {
    return core::Status::InvalidArgument("no shadow windows to score on");
  }
  training::MetricsAccumulator acc;
  for (size_t begin = 0; begin < indices.size();
       begin += static_cast<size_t>(options_.batch_size)) {
    size_t end = std::min(begin + static_cast<size_t>(options_.batch_size),
                          indices.size());
    std::vector<int64_t> chunk(indices.begin() + begin, indices.begin() + end);
    data::Batch batch = windows.MakeBatch(chunk);
    t::Tensor denorm;
    try {
      denorm = training::RunBatchedInference(model, normalizer, batch);
    } catch (const std::exception& e) {
      return core::Status::Internal(std::string("shadow forward threw: ") +
                                    e.what());
    }
    if (t::HasNonFinite(denorm)) {
      return core::Status::Internal("shadow forward produced non-finite");
    }
    t::Tensor truth = batch.y;
    if (options_.target_feature >= 0) {
      denorm = t::Slice(denorm, -1, options_.target_feature, 1);
      truth = t::Slice(truth, -1, options_.target_feature, 1);
    }
    acc.Add(denorm, truth);
  }
  return acc.Compute().mae;
}

PromotionGate::PromotionGate(PromotionGateOptions options,
                             serving::ModelRegistry* registry,
                             serving::ModelRegistry::ModelFactory factory)
    : options_(options),
      registry_(registry),
      factory_(std::move(factory)) {
  SSTBAN_CHECK(registry_ != nullptr);
  SSTBAN_CHECK(factory_ != nullptr);
  SSTBAN_CHECK_GE(options_.min_relative_improvement, 0.0);
  SSTBAN_CHECK_GE(options_.rollback_after, 1);
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
    const data::Normalizer& normalizer, const ShadowEvaluator& evaluator) {
  SSTBAN_CHECK(candidate != nullptr);
  PromotionDecision decision;
  std::shared_ptr<const serving::ModelRegistry::Served> incumbent =
      registry_->current();
  decision.previous_version = incumbent != nullptr ? incumbent->version : 0;

  // Candidate first: an unscorable candidate refuses immediately, regardless
  // of the incumbent's condition.
  core::StatusOr<double> cand =
      evaluator.Score(candidate.get(), shadow_windows, shadow_indices,
                      normalizer);
  if (!cand.ok() || !std::isfinite(cand.value())) {
    decision.reason = "candidate unscorable: " +
                      (cand.ok() ? std::string("non-finite score")
                                 : cand.status().ToString());
    ++refusals_;
    last_decision_ = decision;
    return decision;
  }
  decision.candidate_score = cand.value();

  // Incumbent scored through a weight-copied clone: the served instance may
  // be running inference on the batcher thread right now, and Score flips
  // train/eval state. An unscorable incumbent (its forward throws — the
  // failure drift adaptation exists to recover from) counts as infinitely
  // bad, so a healthy candidate can still promote past it.
  double incumbent_score = std::numeric_limits<double>::infinity();
  if (incumbent != nullptr) {
    std::unique_ptr<training::TrafficModel> shadow_incumbent =
        CloneWithWeights(factory_, *incumbent->model);
    core::StatusOr<double> inc =
        evaluator.Score(shadow_incumbent.get(), shadow_windows, shadow_indices,
                        normalizer);
    if (inc.ok() && std::isfinite(inc.value())) incumbent_score = inc.value();
  }
  decision.incumbent_score = incumbent_score;

  const bool beats =
      decision.candidate_score <
      incumbent_score * (1.0 - options_.min_relative_improvement);
  if (!beats) {
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
      options_.rollback_factor *
      std::max(promoted_score_, options_.rollback_floor);
  if (!std::isfinite(error) || error > bound) {
    ++regress_streak_;
  } else {
    regress_streak_ = 0;
  }
  if (regress_streak_ < options_.rollback_after) return false;
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
