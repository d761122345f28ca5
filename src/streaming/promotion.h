#ifndef SSTBAN_STREAMING_PROMOTION_H_
#define SSTBAN_STREAMING_PROMOTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "serving/model_registry.h"
#include "training/model.h"

namespace sstban::streaming {

// Scores a model on matured live windows (windows whose ground-truth horizon
// has since been observed): training::Evaluate's denormalized forecast MAE
// over every channel, exactly the serving metric. Used to score both the
// incumbent and an adapted candidate on the *same* windows, which is what
// makes the promotion comparison fair. Failpoint `shadow_eval` fires first.
// Errors: InvalidArgument for empty `indices`; Internal for a model that
// throws or scores non-finite — the gate treats that as "do not promote"
// (candidate) or "incumbent unmeasurable, keep it" (incumbent).
core::StatusOr<double> ShadowScore(training::TrafficModel* model,
                                   const data::WindowDataset& windows,
                                   const std::vector<int64_t>& indices,
                                   const data::Normalizer& normalizer);

// Builds a factory-fresh model carrying `source`'s weights (copied by
// position; the factory contract guarantees an architecture-identical
// parameter list). Both the gate and the controller clone before scoring or
// adapting: the served instance may be running inference on the batcher
// thread, and training/eval passes flip shared module state.
std::unique_ptr<training::TrafficModel> CloneWithWeights(
    const serving::ModelRegistry::ModelFactory& factory,
    const training::TrafficModel& source);

struct PromotionDecision {
  bool promoted = false;
  double incumbent_score = 0.0;
  double candidate_score = 0.0;
  int64_t previous_version = 0;  // incumbent version before the swap
  int64_t new_version = 0;       // version installed (0 when refused)
  std::string reason;
};

// Shadow-gated hot-swap with automatic rollback. Invariants (pinned by
// streaming_chaos_test under every failure schedule):
//   - the serving incumbent is never replaced by a candidate whose shadow
//     score is not strictly better;
//   - a swap fault (promote_swap failpoint) refuses the promotion and leaves
//     the incumbent installed — rollback-by-not-committing;
//   - a sustained post-promotion live regression reinstates the
//     pre-promotion weights as a fresh registry version (the rollback path
//     itself has no failpoint: the safety path must not be injectable).
// The batcher-side half of the contract is unchanged from PR 5: on the next
// batch after any Install the server pins the new snapshot and resets the
// primary circuit breaker (CircuitBreaker::OnModelSwapped).
class PromotionGate {
 public:
  // Post-promotion regression monitor (DESIGN §15.4): a live error above
  // kRollbackFactor * max(candidate shadow score, kRollbackFloor) for
  // kRollbackAfter consecutive observations rolls the previous weights back.
  static constexpr double kRollbackFactor = 1.5;
  static constexpr double kRollbackFloor = 1e-6;
  static constexpr int64_t kRollbackAfter = 3;

  // `factory` builds architecture-compatible empty models (the registry's
  // own factory works); it backs the rollback snapshot restore.
  PromotionGate(serving::ModelRegistry* registry,
                serving::ModelRegistry::ModelFactory factory);

  // Scores incumbent and candidate on the same shadow windows and promotes
  // the candidate through ModelRegistry::Install iff it wins. On promotion
  // the incumbent's weights are snapshotted for rollback. An unscorable
  // candidate refuses; an unscorable incumbent (throwing model) treats the
  // incumbent as infinitely bad — promotion is the recovery path.
  core::StatusOr<PromotionDecision> TryPromote(
      std::unique_ptr<training::TrafficModel> candidate,
      const data::WindowDataset& shadow_windows,
      const std::vector<int64_t>& shadow_indices,
      const data::Normalizer& normalizer);

  // Feeds one live post-promotion error observation. Returns true when this
  // observation triggered a rollback. No-op (false) when no promotion is
  // being monitored.
  bool ObserveLive(double error);

  bool monitoring() const { return monitoring_; }
  int64_t promotions() const { return promotions_; }
  int64_t refusals() const { return refusals_; }
  int64_t rollbacks() const { return rollbacks_; }
  const PromotionDecision& last_decision() const { return last_decision_; }

 private:
  void Rollback();

  serving::ModelRegistry* registry_;
  serving::ModelRegistry::ModelFactory factory_;

  // Pre-promotion weight snapshot for rollback.
  std::vector<tensor::Tensor> previous_params_;
  double promoted_score_ = 0.0;
  int64_t regress_streak_ = 0;
  bool monitoring_ = false;

  PromotionDecision last_decision_;
  int64_t promotions_ = 0;
  int64_t refusals_ = 0;
  int64_t rollbacks_ = 0;
};

}  // namespace sstban::streaming

#endif  // SSTBAN_STREAMING_PROMOTION_H_
