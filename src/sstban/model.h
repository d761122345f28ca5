#ifndef SSTBAN_SSTBAN_MODEL_H_
#define SSTBAN_SSTBAN_MODEL_H_

#include <memory>
#include <string>

#include "core/rng.h"
#include "sstban/config.h"
#include "sstban/decoders.h"
#include "sstban/encoder.h"
#include "sstban/ste.h"
#include "sstban/transform_attention.h"
#include "training/model.h"

namespace sstban::sstban {

// The full SSTBAN model (Fig. 1): a forecasting branch
// (encoder -> transform attention -> forecasting decoder) and a
// self-supervised masked-autoencoding branch (masking -> shared encoder ->
// reconstructing decoder -> latent alignment), combined through the
// multi-task loss (1 - lambda) * MAE + lambda * MSE.
class SstbanModel : public training::TrafficModel {
 public:
  explicit SstbanModel(const SstbanConfig& config);

  // Forecasting branch only (used at inference / evaluation).
  autograd::Variable Predict(const tensor::Tensor& x_norm,
                             const data::Batch& batch) override;

  // Two-branch multi-task objective (training).
  autograd::Variable TrainingLoss(const tensor::Tensor& x_norm,
                                  const tensor::Tensor& y_norm,
                                  const data::Batch& batch) override;

  // Masked-reconstruction branch alone: mask the window, re-encode, align the
  // reconstruction with the clean-encoder latent. Needs no labels, which is
  // what lets the online adapter fine-tune on live windows whose ground-truth
  // future has not been observed yet. Draws masks from the same checkpointed
  // mask_rng_ stream as TrainingLoss. Undefined when the model was built
  // without the reconstructing decoder.
  autograd::Variable SelfSupervisedLoss(const tensor::Tensor& x_norm,
                                        const data::Batch& batch) override;

  std::string name() const override {
    return config_.use_bottleneck ? "SSTBAN" : "SSTBAN-w/o-STBA";
  }

  // The masking stream advances once per training step; checkpointing it is
  // what makes a resumed run draw the same masks as an uninterrupted one.
  core::Rng* TrainingRng() override { return &mask_rng_; }

  // One sample's patch mask when `objective`'s loss masks (Masks()).
  tensor::Tensor DrawItemMask(training::Objective objective) override;

  const SstbanConfig& config() const { return config_; }

  // Runtime adjustments for self-supervision scheduling experiments
  // (multi-task vs pre-train-then-fine-tune; see bench_ablation_ssl_modes).
  // lambda = 1 trains the reconstruction objective alone; lambda = 0 (or
  // set_self_supervised(false)) trains pure forecasting.
  void set_lambda(double lambda) { config_.lambda = lambda; }
  void set_self_supervised(bool enabled);

  // Forecast from partially observed input: `keep_pos` is [B, P, N] with 1
  // where the position was actually observed. Missing positions are zeroed
  // in the input and excluded as attention keys in the encoder — the same
  // machinery the self-supervised branch trains, reused for degraded-mode
  // serving and for inference with sensor dropouts.
  autograd::Variable PredictMasked(const tensor::Tensor& x_norm,
                                   const tensor::Tensor& keep_pos,
                                   const data::Batch& batch) override;

  // Exposed pieces of one training forward pass, for tests and ablations.
  struct ForwardOutput {
    autograd::Variable prediction;      // [B, Q, N, C]
    autograd::Variable forecast_loss;   // scalar MAE
    autograd::Variable alignment_loss;  // scalar MSE (undefined if SSL off)
    autograd::Variable total_loss;      // scalar
  };
  ForwardOutput ForwardTwoBranch(const tensor::Tensor& x_norm,
                                 const tensor::Tensor& y_norm,
                                 const data::Batch& batch);

 private:
  // The input-calendar STE and the encoder: returns the latent H^(L) of
  // `x` and, through `e`, the embedding E the later stages read. `keep_pos`
  // ([B, P, N], optional) excludes unobserved positions as attention keys.
  autograd::Variable Encode(const autograd::Variable& x,
                            const data::Batch& batch, autograd::Variable* e,
                            const tensor::Tensor* keep_pos = nullptr);

  // The output-calendar STE, transform attention and the forecasting
  // decoder: the normalized prediction from the clean latent `h`.
  autograd::Variable Forecast(const autograd::Variable& h,
                              const autograd::Variable& e,
                              const data::Batch& batch);

  // The self-supervised half: masks `x` with `batch.mask`, or with masks
  // drawn from mask_rng_ when it is empty, re-encodes it with the clean
  // pass's embedding `e`, reconstructs the latent and returns its MSE
  // against the detached clean latent `h`.
  autograd::Variable AlignmentLoss(const autograd::Variable& x,
                                   const autograd::Variable& e,
                                   const autograd::Variable& h,
                                   const data::Batch& batch);

  // Whether `objective`'s loss runs the masked branch: the training loss
  // with self-supervision on in training mode, the self-supervised loss
  // whenever the model has a reconstructing decoder.
  bool Masks(training::Objective objective) const;

  // [B, P, N, C] spacetime patch masks from mask_rng_, sample by sample.
  tensor::Tensor DrawMasks(int64_t batch_size);

  SstbanConfig config_;
  core::Rng rng_;       // construction-time weight init stream
  core::Rng mask_rng_;  // per-step masking stream
  std::unique_ptr<SpatialTemporalEmbedding> ste_;
  std::unique_ptr<StEncoder> encoder_;
  std::unique_ptr<TransformAttention> transform_;
  std::unique_ptr<StForecastingDecoder> decoder_;
  std::unique_ptr<StReconstructingDecoder> reconstructor_;
};

}  // namespace sstban::sstban

#endif  // SSTBAN_SSTBAN_MODEL_H_
