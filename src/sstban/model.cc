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

ag::Variable SstbanModel::Encode(const ag::Variable& x,
                                 const data::Batch& batch, ag::Variable* e,
                                 const t::Tensor* keep_pos) {
  int64_t batch_size = x.dim(0);
  int64_t p = config_.input_len, n = config_.num_nodes, c = config_.num_features;
  SSTBAN_CHECK(x.shape() == (t::Shape{batch_size, p, n, c}))
      << "input" << x.shape().ToString();
  *e = ste_->Forward(batch.tod_in, batch.dow_in, batch_size, p);
  return encoder_->Forward(x, *e, keep_pos);
}

ag::Variable SstbanModel::Forecast(const ag::Variable& h, const ag::Variable& e,
                                   const data::Batch& batch) {
  ag::Variable e_out = ste_->Forward(batch.tod_out, batch.dow_out, h.dim(0),
                                     config_.output_len);
  return decoder_->Forward(transform_->Forward(e_out, e, h), e_out);
}

ag::Variable SstbanModel::AlignmentLoss(const ag::Variable& x,
                                        const ag::Variable& e,
                                        const ag::Variable& h,
                                        const data::Batch& batch) {
  const int64_t batch_size = x.dim(0);
  const int64_t p = config_.input_len, n = config_.num_nodes;
  const int64_t c = config_.num_features;
  t::Tensor mask = batch.mask.defined() ? batch.mask : DrawMasks(batch_size);
  SSTBAN_CHECK(mask.shape() == x.shape()) << "mask" << mask.shape().ToString();
  // Position-level keep masks: a position is observed if any of its
  // channels survived masking.
  t::Tensor keep_pos = t::Tensor::Empty(t::Shape{batch_size, p, n});
  const float* pm = mask.data();
  float* pk = keep_pos.data();
  for (int64_t i = 0; i < keep_pos.size(); ++i) {
    float any = 0.0f;
    for (int64_t f = 0; f < c; ++f) any = std::max(any, pm[i * c + f]);
    pk[i] = any;
  }
  t::Tensor keep_latent = keep_pos.Reshape(t::Shape{batch_size, p, n, 1});
  ag::Variable x_masked = ag::Mul(x, ag::Variable(mask));
  ag::Variable h_masked = encoder_->Forward(x_masked, e, &keep_pos);
  ag::Variable h_recon = reconstructor_->Forward(h_masked, e, keep_latent);
  // Stop-gradient on the alignment target H^(L) (DESIGN.md §5).
  return ag::MseLoss(h_recon, h.Detach());
}

ag::Variable SstbanModel::Predict(const t::Tensor& x_norm,
                                  const data::Batch& batch) {
  ag::Variable e;
  ag::Variable h = Encode(ag::Variable(x_norm), batch, &e);
  return Forecast(h, e, batch);
}

ag::Variable SstbanModel::PredictMasked(const t::Tensor& x_norm,
                                        const t::Tensor& keep_pos,
                                        const data::Batch& batch) {
  int64_t batch_size = x_norm.dim(0);
  int64_t p = config_.input_len, n = config_.num_nodes;
  SSTBAN_CHECK(keep_pos.shape() == (t::Shape{batch_size, p, n}));
  // Zero out missing observations, matching the corrupted-input pathway.
  t::Tensor channel_mask = keep_pos.Reshape(t::Shape{batch_size, p, n, 1});
  ag::Variable x = ag::Mul(ag::Variable(x_norm), ag::Variable(channel_mask));
  ag::Variable e;
  ag::Variable h = Encode(x, batch, &e, &keep_pos);
  return Forecast(h, e, batch);
}

SstbanModel::ForwardOutput SstbanModel::ForwardTwoBranch(
    const t::Tensor& x_norm, const t::Tensor& y_norm, const data::Batch& batch) {
  ForwardOutput out;
  ag::Variable x(x_norm), e;
  ag::Variable h = Encode(x, batch, &e);
  out.prediction = Forecast(h, e, batch);
  out.forecast_loss =
      ag::MaeLoss(out.prediction, ag::Variable(y_norm, /*requires_grad=*/false));

  if (!Masks(training::Objective::kTraining)) {
    out.total_loss = out.forecast_loss;
    return out;
  }
  out.alignment_loss = AlignmentLoss(x, e, h, batch);
  float lambda = static_cast<float>(config_.lambda);
  out.total_loss = ag::Add(ag::MulScalar(out.forecast_loss, 1.0f - lambda),
                           ag::MulScalar(out.alignment_loss, lambda));
  return out;
}

bool SstbanModel::Masks(training::Objective objective) const {
  if (objective == training::Objective::kSelfSupervised) {
    return reconstructor_ != nullptr;
  }
  return config_.self_supervised && training();
}

t::Tensor SstbanModel::DrawMasks(int64_t batch_size) {
  int64_t p = config_.input_len, n = config_.num_nodes, c = config_.num_features;
  t::Tensor mask = t::Tensor::Empty(t::Shape{batch_size, p, n, c});
  for (int64_t b = 0; b < batch_size; ++b) {
    t::Tensor sample =
        GenerateMask(p, n, c, config_.patch_len, config_.mask_rate,
                     config_.mask_strategy, mask_rng_);
    std::memcpy(mask.data() + b * p * n * c, sample.data(),
                static_cast<size_t>(p * n * c) * sizeof(float));
  }
  return mask;
}

t::Tensor SstbanModel::DrawItemMask(training::Objective objective) {
  return Masks(objective) ? DrawMasks(1) : t::Tensor();
}

ag::Variable SstbanModel::SelfSupervisedLoss(const t::Tensor& x_norm,
                                             const data::Batch& batch) {
  if (!Masks(training::Objective::kSelfSupervised)) return {};
  ag::Variable x(x_norm), e;
  ag::Variable h = Encode(x, batch, &e);
  return AlignmentLoss(x, e, h, batch);
}

void SstbanModel::set_self_supervised(bool enabled) {
  SSTBAN_CHECK(!enabled || reconstructor_ != nullptr)
      << "model was built without a reconstructing decoder";
  config_.self_supervised = enabled;
}

ag::Variable SstbanModel::TrainingLoss(const t::Tensor& x_norm,
                                       const t::Tensor& y_norm,
                                       const data::Batch& batch) {
  return ForwardTwoBranch(x_norm, y_norm, batch).total_loss;
}

}  // namespace sstban::sstban
