#ifndef SSTBAN_TRAINING_MODEL_H_
#define SSTBAN_TRAINING_MODEL_H_

#include "autograd/variable.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "nn/module.h"

namespace sstban::training {

// The two losses a training step can minimise.
enum class Objective {
  kTraining,        // TrafficModel::TrainingLoss, on inputs and targets
  kSelfSupervised,  // TrafficModel::SelfSupervisedLoss, on inputs alone
};

// Common interface all forecasting models implement (SSTBAN and every
// baseline in Tables IV/V). Models consume z-score-normalized signals and
// emit normalized predictions; the evaluator denormalizes before computing
// MAE/RMSE/MAPE, matching the paper's protocol ("we re-transform the
// predictions back to the actual values").
class TrafficModel : public nn::Module {
 public:
  // Normalized input [B, P, N, C] (+ calendar features from `batch`) ->
  // normalized prediction [B, Q, N, C].
  virtual autograd::Variable Predict(const tensor::Tensor& x_norm,
                                     const data::Batch& batch) = 0;

  // Degraded-mode inference from a partially observed window: `keep_pos` is
  // [B, P, N] with 1 where the position was actually observed. The default
  // zeroes unobserved positions and runs the plain forecasting pass; models
  // trained to handle missing inputs (SSTBAN's masked-autoencoder branch)
  // override this to exclude masked positions structurally (mask tokens,
  // -inf attention keys) — the serving sanitizer routes NaN/Inf readings on
  // degradable channels through here instead of rejecting the request.
  virtual autograd::Variable PredictMasked(const tensor::Tensor& x_norm,
                                           const tensor::Tensor& keep_pos,
                                           const data::Batch& batch);

  // Training objective. The default is the paper's forecasting loss, mean
  // absolute error in normalized space; models with auxiliary objectives
  // (SSTBAN's self-supervised branch) override this.
  virtual autograd::Variable TrainingLoss(const tensor::Tensor& x_norm,
                                          const tensor::Tensor& y_norm,
                                          const data::Batch& batch);

  // Label-free training objective over the input window alone — no targets.
  // SSTBAN overrides this with its masked-reconstruction branch (mask the
  // window, re-encode, reconstruct the clean latent), which is what the
  // online adapter fine-tunes on when live drift is confirmed: future ground
  // truth is not yet observable, but the reconstruction objective is. The
  // default returns an undefined Variable, meaning the model has no
  // label-free objective and cannot be adapted online.
  virtual autograd::Variable SelfSupervisedLoss(const tensor::Tensor& x_norm,
                                                const data::Batch& batch);

  // False for closed-form models (HA, VAR) that skip the SGD loop.
  virtual bool IsTrainable() const { return true; }

  // One-shot fitting hook for non-gradient models; no-op by default.
  virtual void Fit(const data::WindowDataset& windows,
                   const std::vector<int64_t>& train_indices,
                   const data::Normalizer& normalizer);

  // The stochastic stream the model draws from inside TrainingLoss (e.g.
  // SSTBAN's per-step masking). The trainer checkpoints and restores it so
  // a resumed run replays the identical draw sequence; nullptr (the
  // default) when the training loss is deterministic.
  virtual core::Rng* TrainingRng() { return nullptr; }

  // Draws from TrainingRng() the [1, P, N, C] mask `objective`'s loss would
  // draw for one item (data::Batch::mask); empty when it draws none (the
  // default). TrainStep draws every item's, in order, before items run.
  virtual tensor::Tensor DrawItemMask(Objective objective);

  // Short display name for result tables.
  virtual std::string name() const = 0;
};

}  // namespace sstban::training

#endif  // SSTBAN_TRAINING_MODEL_H_
