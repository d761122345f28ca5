#include "training/model.h"

#include "autograd/ops.h"
#include "core/check.h"

namespace sstban::training {

autograd::Variable TrafficModel::PredictMasked(const tensor::Tensor& x_norm,
                                               const tensor::Tensor& keep_pos,
                                               const data::Batch& batch) {
  SSTBAN_CHECK_EQ(x_norm.rank(), 4);
  SSTBAN_CHECK(keep_pos.shape() == (tensor::Shape{x_norm.dim(0), x_norm.dim(1),
                                                  x_norm.dim(2)}))
      << "keep_pos " << keep_pos.shape().ToString() << " for input "
      << x_norm.shape().ToString();
  tensor::Tensor channel_mask = keep_pos.Reshape(
      tensor::Shape{x_norm.dim(0), x_norm.dim(1), x_norm.dim(2), 1});
  autograd::Variable masked = autograd::Mul(
      autograd::Variable(x_norm), autograd::Variable(channel_mask));
  return Predict(masked.value(), batch);
}

autograd::Variable TrafficModel::TrainingLoss(const tensor::Tensor& x_norm,
                                              const tensor::Tensor& y_norm,
                                              const data::Batch& batch) {
  autograd::Variable pred = Predict(x_norm, batch);
  autograd::Variable target(y_norm, /*requires_grad=*/false);
  return autograd::MaeLoss(pred, target);
}

autograd::Variable TrafficModel::SelfSupervisedLoss(
    const tensor::Tensor& x_norm, const data::Batch& batch) {
  (void)x_norm;
  (void)batch;
  return {};
}

tensor::Tensor TrafficModel::DrawItemMask(Objective objective) {
  (void)objective;
  return {};
}

void TrafficModel::Fit(const data::WindowDataset& windows,
                       const std::vector<int64_t>& train_indices,
                       const data::Normalizer& normalizer) {
  (void)windows;
  (void)train_indices;
  (void)normalizer;
}

}  // namespace sstban::training
