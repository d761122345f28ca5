#ifndef SSTBAN_TRAINING_FORECAST_SERVICE_H_
#define SSTBAN_TRAINING_FORECAST_SERVICE_H_

#include <cstdint>
#include <functional>

#include "core/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "training/model.h"

namespace sstban::training {

// -- Shared inference plumbing ------------------------------------------------
// Both the single-request ForecastService below and the batching server in
// src/serving/ must derive the same calendar features and apply the same
// normalize -> Predict -> denormalize pipeline; these helpers are that logic,
// hoisted so the two paths cannot drift.

// The window check both serving entry points run before any compute:
// `recent` must be exactly [input_len, num_nodes, num_features] and
// `first_step` non-negative. The InvalidArgument message names the expected
// and the offered shape.
core::Status CheckWindow(const tensor::Tensor& recent, int64_t first_step,
                         int64_t input_len, int64_t num_nodes,
                         int64_t num_features);

// Appends the time-of-day / day-of-week features for one window whose first
// input slice sits at absolute index `first_step` (slices since a Monday
// 00:00 origin). The features repeat weekly, so `first_step` is reduced
// modulo one week before the window's offsets are added: any non-negative
// int64 index is safe. Appending once per window in batch order reproduces
// the [B*P] / [B*Q] layout data::WindowDataset::MakeBatch emits.
void AppendCalendarFeatures(int64_t first_step, int64_t input_len,
                            int64_t output_len, int64_t steps_per_day,
                            data::Batch* batch);

// The item split of RunBatchedInference[Masked] and TrainStep: runs item(b)
// for each b in [0, items) as one task on core::ThreadPool::Global(), in
// core::StoragePool::ItemScope(b), and waits for all of them.
void RunItems(int64_t items, const std::function<void(int64_t b)>& item);

// Runs one inference pass over a fully assembled batch (batch.x is
// [B, P, N, C] raw signals with calendar features filled in): switches the
// model to eval, then normalizes, predicts and denormalizes each window as
// its own single-threaded task (RunItems) with autograd off, so a window's
// forecast is bit for bit its batch-of-one forecast, whatever the pool width
// and its batch-mates. Returns the raw-scale [B, Q, N, C] forecast.
tensor::Tensor RunBatchedInference(TrafficModel* model,
                                   const data::Normalizer& normalizer,
                                   const data::Batch& batch);

// Mask-aware variant: `keep_pos` is [B, P, N] with 1 where the position was
// observed; masked positions are routed through the model's degraded-mode
// pathway (TrafficModel::PredictMasked). batch.x may hold arbitrary finite
// values at masked positions — they are structurally excluded, never read.
// Runs by window like RunBatchedInference. Returns InvalidArgument, before
// any window runs, when keep_pos's shape disagrees with the batch geometry
// instead of reading out of range inside the model.
core::StatusOr<tensor::Tensor> RunBatchedInferenceMasked(
    TrafficModel* model, const data::Normalizer& normalizer,
    const data::Batch& batch, const tensor::Tensor& keep_pos);

// Deployment-facing wrapper around a trained TrafficModel: accepts a raw
// (denormalized) recent window plus the absolute time index of its first
// slice, derives calendar features, normalizes, runs the model, and returns
// the denormalized multi-step forecast — what an ITS integration actually
// consumes. The absolute index is measured in slices since a Monday 00:00
// origin, so time-of-day and day-of-week are self-consistent.
class ForecastService {
 public:
  // The service borrows `model` (must outlive the service). The geometry is
  // the one the model was configured with; every request's window is
  // checked against it up front (CheckWindow) instead of failing deep inside
  // attention with an opaque shape check.
  ForecastService(TrafficModel* model, data::Normalizer normalizer,
                  int64_t input_len, int64_t output_len, int64_t steps_per_day,
                  int64_t num_nodes, int64_t num_features);

  // recent: [P, N, C] raw signals whose first slice is at absolute index
  // `first_step`. Returns [Q, N, C] raw forecasts for the following Q
  // slices, or InvalidArgument on shape mismatch.
  core::StatusOr<tensor::Tensor> Forecast(const tensor::Tensor& recent,
                                          int64_t first_step);

  int64_t input_len() const { return input_len_; }
  int64_t output_len() const { return output_len_; }

 private:
  TrafficModel* model_;
  data::Normalizer normalizer_;
  int64_t input_len_;
  int64_t output_len_;
  int64_t steps_per_day_;
  int64_t num_nodes_;
  int64_t num_features_;
};

}  // namespace sstban::training

#endif  // SSTBAN_TRAINING_FORECAST_SERVICE_H_
