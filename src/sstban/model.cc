#include "sstban/model.h"

#include <algorithm>
#include <cstring>

#include "autograd/ops.h"
#include "core/check.h"
#include "tensor/ops.h"

namespace sstban::sstban {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

SstbanModel::SstbanModel(const SstbanConfig& config)
    : config_(config), rng_(config.seed), mask_rng_(config.seed ^ 0x9e3779b9) {
  core::Status status = config_.Validate();
  SSTBAN_CHECK(status.ok()) << status.ToString();
  ste_ = std::make_unique<SpatialTemporalEmbedding>(
      config_.num_nodes, config_.steps_per_day, config_.hidden_dim, rng_);
  encoder_ = std::make_unique<StEncoder>(config_, rng_);
  transform_ = std::make_unique<TransformAttention>(config_.hidden_dim,
                                                    config_.num_heads, rng_);
  decoder_ = std::make_unique<StForecastingDecoder>(config_, rng_);
  RegisterModule("ste", ste_.get());
  RegisterModule("encoder", encoder_.get());
  RegisterModule("transform", transform_.get());
  RegisterModule("decoder", decoder_.get());
  if (config_.self_supervised) {
    reconstructor_ = std::make_unique<StReconstructingDecoder>(config_, rng_);
    RegisterModule("reconstructor", reconstructor_.get());
  }
}

ag::Variable SstbanModel::ForecastBranch(const ag::Variable& x,
                                         const data::Batch& batch,
                                         ag::Variable* h_latent,
                                         ag::Variable* e_in) {
  int64_t batch_size = x.dim(0);
  ag::Variable e = ste_->Forward(batch.tod_in, batch.dow_in, batch_size,
                                 config_.input_len);
  ag::Variable e_out = ste_->Forward(batch.tod_out, batch.dow_out, batch_size,
                                     config_.output_len);
  ag::Variable h = encoder_->Forward(x, e);
  ag::Variable h0 = transform_->Forward(e_out, e, h);
  ag::Variable prediction = decoder_->Forward(h0, e_out);
  if (h_latent != nullptr) *h_latent = h;
  if (e_in != nullptr) *e_in = e;
  return prediction;
}

ag::Variable SstbanModel::Predict(const t::Tensor& x_norm,
                                  const data::Batch& batch) {
  ag::Variable x(x_norm);
  return ForecastBranch(x, batch, nullptr, nullptr);
}

SstbanModel::ForwardOutput SstbanModel::ForwardTwoBranch(
    const t::Tensor& x_norm, const t::Tensor& y_norm, const data::Batch& batch) {
  SSTBAN_CHECK_EQ(x_norm.rank(), 4);
  int64_t batch_size = x_norm.dim(0);
  int64_t p = config_.input_len, n = config_.num_nodes, c = config_.num_features;
  SSTBAN_CHECK(x_norm.shape() == (t::Shape{batch_size, p, n, c}))
      << "input" << x_norm.shape().ToString();

  ForwardOutput out;
  ag::Variable x(x_norm);
  ag::Variable h_latent, e_in;
  out.prediction = ForecastBranch(x, batch, &h_latent, &e_in);
  out.forecast_loss =
      ag::MaeLoss(out.prediction, ag::Variable(y_norm, /*requires_grad=*/false));

  if (!config_.self_supervised || !training()) {
    out.total_loss = out.forecast_loss;
    return out;
  }

  // -- Self-supervised branch --------------------------------------------
  t::Tensor mask, keep_pos, keep_latent;
  DrawStepMasks(batch_size, &mask, &keep_pos, &keep_latent);

  ag::Variable x_masked = ag::Mul(x, ag::Variable(mask));
  ag::Variable e = ste_->Forward(batch.tod_in, batch.dow_in, batch_size, p);
  ag::Variable h_masked = encoder_->Forward(x_masked, e, &keep_pos);
  ag::Variable h_recon = reconstructor_->Forward(h_masked, e, keep_latent);

  // Stop-gradient on the alignment target H^(L) (DESIGN.md §5).
  out.alignment_loss = ag::MseLoss(h_recon, h_latent.Detach());

  float lambda = static_cast<float>(config_.lambda);
  out.total_loss = ag::Add(ag::MulScalar(out.forecast_loss, 1.0f - lambda),
                           ag::MulScalar(out.alignment_loss, lambda));
  return out;
}

void SstbanModel::DrawStepMasks(int64_t batch_size, t::Tensor* mask,
                                t::Tensor* keep_pos, t::Tensor* keep_latent) {
  int64_t p = config_.input_len, n = config_.num_nodes, c = config_.num_features;
  // Per-sample spacetime patch masks, concatenated to [B, P, N, C].
  *mask = t::Tensor::Empty(t::Shape{batch_size, p, n, c});
  for (int64_t b = 0; b < batch_size; ++b) {
    t::Tensor sample =
        GenerateMask(p, n, c, config_.patch_len, config_.mask_rate,
                     config_.mask_strategy, mask_rng_);
    std::memcpy(mask->data() + b * p * n * c, sample.data(),
                static_cast<size_t>(p * n * c) * sizeof(float));
  }
  // Position-level keep masks: a position is observed if any of its
  // channels survived masking.
  *keep_pos = t::Tensor::Empty(t::Shape{batch_size, p, n});
  *keep_latent = t::Tensor::Empty(t::Shape{batch_size, p, n, 1});
  const float* pm = mask->data();
  float* pk = keep_pos->data();
  float* pl = keep_latent->data();
  int64_t positions = batch_size * p * n;
  for (int64_t i = 0; i < positions; ++i) {
    float any = 0.0f;
    for (int64_t f = 0; f < c; ++f) any = std::max(any, pm[i * c + f]);
    pk[i] = any;
    pl[i] = any;
  }
}

ag::Variable SstbanModel::SelfSupervisedLoss(const t::Tensor& x_norm,
                                             const data::Batch& batch) {
  if (reconstructor_ == nullptr) return {};
  SSTBAN_CHECK_EQ(x_norm.rank(), 4);
  int64_t batch_size = x_norm.dim(0);
  int64_t p = config_.input_len, n = config_.num_nodes, c = config_.num_features;
  SSTBAN_CHECK(x_norm.shape() == (t::Shape{batch_size, p, n, c}))
      << "input" << x_norm.shape().ToString();

  ag::Variable x(x_norm);
  ag::Variable e = ste_->Forward(batch.tod_in, batch.dow_in, batch_size, p);
  ag::Variable h_clean = encoder_->Forward(x, e);
  ag::Variable target = h_clean.Detach();  // stop-gradient, DESIGN.md §5

  t::Tensor mask, keep_pos, keep_latent;
  DrawStepMasks(batch_size, &mask, &keep_pos, &keep_latent);
  ag::Variable x_masked = ag::Mul(x, ag::Variable(mask));
  ag::Variable h_masked = encoder_->Forward(x_masked, e, &keep_pos);
  ag::Variable h_recon = reconstructor_->Forward(h_masked, e, keep_latent);
  return ag::MseLoss(h_recon, target);
}

void SstbanModel::set_self_supervised(bool enabled) {
  SSTBAN_CHECK(!enabled || reconstructor_ != nullptr)
      << "model was built without a reconstructing decoder";
  config_.self_supervised = enabled;
}

ag::Variable SstbanModel::PredictWithMissing(const t::Tensor& x_norm,
                                             const t::Tensor& keep_pos,
                                             const data::Batch& batch) {
  int64_t batch_size = x_norm.dim(0);
  int64_t p = config_.input_len, n = config_.num_nodes, c = config_.num_features;
  SSTBAN_CHECK(keep_pos.shape() == (t::Shape{batch_size, p, n}));
  // Zero out missing observations, matching the corrupted-input pathway.
  t::Tensor channel_mask = keep_pos.Reshape(t::Shape{batch_size, p, n, 1});
  ag::Variable x = ag::Mul(ag::Variable(x_norm), ag::Variable(channel_mask));
  (void)c;
  ag::Variable e = ste_->Forward(batch.tod_in, batch.dow_in, batch_size, p);
  ag::Variable e_out = ste_->Forward(batch.tod_out, batch.dow_out, batch_size,
                                     config_.output_len);
  ag::Variable h = encoder_->Forward(x, e, &keep_pos);
  ag::Variable h0 = transform_->Forward(e_out, e, h);
  return decoder_->Forward(h0, e_out);
}

ag::Variable SstbanModel::TrainingLoss(const t::Tensor& x_norm,
                                       const t::Tensor& y_norm,
                                       const data::Batch& batch) {
  return ForwardTwoBranch(x_norm, y_norm, batch).total_loss;
}

}  // namespace sstban::sstban
