#include "training/forecast_service.h"

#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/check.h"
#include "core/storage_pool.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "tensor/ops.h"

namespace sstban::training {

core::Status CheckWindow(const tensor::Tensor& recent, int64_t first_step,
                         int64_t input_len, int64_t num_nodes,
                         int64_t num_features) {
  const tensor::Shape want{input_len, num_nodes, num_features};
  if (!(recent.shape() == want)) {
    return core::Status::InvalidArgument(core::StrFormat(
        "expected a %s window, got %s", want.ToString().c_str(),
        recent.shape().ToString().c_str()));
  }
  if (first_step < 0) {
    return core::Status::InvalidArgument("first_step must be >= 0");
  }
  return core::Status::Ok();
}

void AppendCalendarFeatures(int64_t first_step, int64_t input_len,
                            int64_t output_len, int64_t steps_per_day,
                            data::Batch* batch) {
  SSTBAN_CHECK_GT(steps_per_day, 0);
  // Same week position, no overflow when the offsets are added below.
  const int64_t origin = first_step % (7 * steps_per_day);
  auto calendar = [&](int64_t step, std::vector<int64_t>* tod,
                      std::vector<int64_t>* dow) {
    tod->push_back(step % steps_per_day);
    dow->push_back((step / steps_per_day) % 7);
  };
  for (int64_t p = 0; p < input_len; ++p) {
    calendar(origin + p, &batch->tod_in, &batch->dow_in);
  }
  for (int64_t q = 0; q < output_len; ++q) {
    calendar(origin + input_len + q, &batch->tod_out, &batch->dow_out);
  }
}

void RunItems(int64_t items, const std::function<void(int64_t b)>& item) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(items));
  for (int64_t b = 0; b < items; ++b) {
    tasks.push_back([&item, b] {
      core::StoragePool::ItemScope scope(b);
      item(b);
    });
  }
  core::ThreadPool::Global().RunAndWait(std::move(tasks));
}

namespace {

// The item split both entry points share: window b is a single-threaded
// grads-off forward of its one-item slice (through PredictMasked with its
// row of `keep_pos` when that is set), written into row b of the output.
// No result can depend on the pool width or on the batch's other windows.
tensor::Tensor PredictByItem(TrafficModel* model,
                             const data::Normalizer& normalizer,
                             const data::Batch& batch,
                             const tensor::Tensor* keep_pos) {
  SSTBAN_CHECK(model != nullptr);
  model->SetTraining(false);
  std::vector<tensor::Tensor> rows(static_cast<size_t>(batch.batch_size()));
  RunItems(batch.batch_size(), [&](int64_t b) {
    autograd::NoGradGuard no_grad;  // grad mode is thread-local
    data::Batch item = batch.Item(b);
    tensor::Tensor x_norm = normalizer.Transform(item.x);
    autograd::Variable pred =
        keep_pos == nullptr
            ? model->Predict(x_norm, item)
            : model->PredictMasked(x_norm, tensor::Slice(*keep_pos, 0, b, 1),
                                   item);
    rows[static_cast<size_t>(b)] = normalizer.InverseTransform(pred.value());
  });
  return rows.size() == 1 ? rows[0] : tensor::Concat(rows, 0);
}

}  // namespace

tensor::Tensor RunBatchedInference(TrafficModel* model,
                                   const data::Normalizer& normalizer,
                                   const data::Batch& batch) {
  return PredictByItem(model, normalizer, batch, /*keep_pos=*/nullptr);
}

core::StatusOr<tensor::Tensor> RunBatchedInferenceMasked(
    TrafficModel* model, const data::Normalizer& normalizer,
    const data::Batch& batch, const tensor::Tensor& keep_pos) {
  if (batch.x.rank() != 4) {
    return core::Status::InvalidArgument(core::StrFormat(
        "batch.x must be [B, P, N, C], got %s",
        batch.x.shape().ToString().c_str()));
  }
  // Validate the keep mask against the batch geometry *before* any item
  // runs: a mask built for a different (P, N) would otherwise be read out
  // of range (or crash) deep inside PredictMasked.
  tensor::Shape want{batch.x.dim(0), batch.x.dim(1), batch.x.dim(2)};
  if (!(keep_pos.shape() == want)) {
    return core::Status::InvalidArgument(core::StrFormat(
        "keep mask shape %s does not match the batch's [B, P, N] = %s",
        keep_pos.shape().ToString().c_str(), want.ToString().c_str()));
  }
  return PredictByItem(model, normalizer, batch, &keep_pos);
}

ForecastService::ForecastService(TrafficModel* model, data::Normalizer normalizer,
                                 int64_t input_len, int64_t output_len,
                                 int64_t steps_per_day, int64_t num_nodes,
                                 int64_t num_features)
    : model_(model),
      normalizer_(std::move(normalizer)),
      input_len_(input_len),
      output_len_(output_len),
      steps_per_day_(steps_per_day),
      num_nodes_(num_nodes),
      num_features_(num_features) {
  SSTBAN_CHECK(model != nullptr);
  SSTBAN_CHECK_GT(input_len, 0);
  SSTBAN_CHECK_GT(output_len, 0);
  SSTBAN_CHECK_GT(steps_per_day, 0);
  SSTBAN_CHECK_GT(num_nodes, 0);
  SSTBAN_CHECK_GT(num_features, 0);
}

core::StatusOr<tensor::Tensor> ForecastService::Forecast(
    const tensor::Tensor& recent, int64_t first_step) {
  core::Status valid = CheckWindow(recent, first_step, input_len_, num_nodes_,
                                   num_features_);
  if (!valid.ok()) return valid;
  // Strict finiteness: a single NaN/Inf reading would silently poison the
  // whole forward pass (and, on the batched path, everyone coalesced with
  // it). Degraded-mode inference for NaN/Inf readings lives in the serving
  // sanitizer; this single-request service always rejects.
  if (tensor::HasNonFinite(recent)) {
    return core::Status::InvalidArgument(
        "recent window contains NaN/Inf readings; clean the feed or use the "
        "serving path's degraded-mode inference");
  }
  int64_t nodes = recent.dim(1);
  int64_t feats = recent.dim(2);

  data::Batch batch;
  batch.x = recent.Reshape(tensor::Shape{1, input_len_, nodes, feats});
  batch.y = tensor::Tensor::Zeros(
      tensor::Shape{1, output_len_, nodes, feats});  // unused placeholder
  AppendCalendarFeatures(first_step, input_len_, output_len_, steps_per_day_,
                         &batch);

  tensor::Tensor denorm = RunBatchedInference(model_, normalizer_, batch);
  return denorm.Reshape(tensor::Shape{output_len_, nodes, feats});
}

}  // namespace sstban::training
