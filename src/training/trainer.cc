#include "training/trainer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "autograd/ops.h"
#include "core/check.h"
#include "core/failpoint.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "core/timer.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "training/checkpoint.h"
#include "training/forecast_service.h"

namespace sstban::training {

namespace {

// Global gradient-norm bound of every training loop.
constexpr float kGradClipNorm = 5.0f;

// Deep-copies current parameter values (for best-epoch restoration).
std::vector<tensor::Tensor> SnapshotParams(
    const std::vector<autograd::Variable>& params) {
  std::vector<tensor::Tensor> snapshot;
  snapshot.reserve(params.size());
  for (const autograd::Variable& p : params) snapshot.push_back(p.value().Clone());
  return snapshot;
}

void RestoreParams(std::vector<autograd::Variable>& params,
                   const std::vector<tensor::Tensor>& snapshot) {
  SSTBAN_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value().CopyFrom(snapshot[i]);
  }
}

}  // namespace

core::StatusOr<float> TrainStep(TrafficModel* model, optim::Adam* optimizer,
                                const data::Normalizer& normalizer,
                                const data::Batch& batch, Objective objective) {
  SSTBAN_CHECK(model != nullptr && optimizer != nullptr);
  const auto items = static_cast<size_t>(batch.batch_size());
  // Every item's masks, in item order, before any item runs.
  std::vector<data::Batch> item_batches;
  for (size_t b = 0; b < items; ++b) {
    item_batches.push_back(batch.Item(static_cast<int64_t>(b)));
    item_batches.back().mask = model->DrawItemMask(objective);
  }
  // Item b's loss, and its leaves' gradients in nodes it owns.
  std::vector<autograd::Variable> losses(items);
  std::vector<std::unordered_map<const autograd::Node*, autograd::Node>> grads(
      items);
  RunItems(batch.batch_size(), [&](int64_t i) {
    const auto b = static_cast<size_t>(i);
    const data::Batch& item = item_batches[b];
    const tensor::Tensor x_norm = normalizer.Transform(item.x);
    autograd::Variable loss =
        objective == Objective::kTraining
            ? model->TrainingLoss(x_norm, normalizer.Transform(item.y), item)
            : model->SelfSupervisedLoss(x_norm, item);
    if (!loss.defined()) return;
    loss.Backward([&own = grads[b]](autograd::Node& leaf,
                                    const tensor::Tensor& g) {
      own.try_emplace(&leaf, leaf.shape, /*requires_grad=*/true, "leaf")
          .first->second.AccumulateGrad(g);
    });
    losses[b] = loss.Detach();
  });
  double loss_sum = 0.0;
  for (const autograd::Variable& loss : losses) {
    if (!loss.defined()) {
      return core::Status::FailedPrecondition(
          model->name() + " has no loss for this objective");
    }
    loss_sum += loss.item();
  }
  // Each parameter's gradient: the items', added in item order, times 1/B.
  for (const autograd::Variable& p : optimizer->params()) {
    autograd::Node sum(p.shape(), /*requires_grad=*/true, "leaf");
    for (const auto& own : grads) {
      auto it = own.find(p.node().get());
      if (it != own.end()) sum.AccumulateGrad(it->second.grad);
    }
    p.node()->grad =
        sum.grad.defined()
            ? tensor::MulScalar(sum.grad, 1.0f / static_cast<float>(items))
            : tensor::Tensor();
  }
  optim::ClipGradNorm(optimizer->params(), kGradClipNorm);
  optimizer->Step();
  return static_cast<float>(loss_sum / static_cast<double>(items));
}

TrainStats Trainer::Train(TrafficModel* model, const data::WindowDataset& windows,
                          const data::SplitIndices& split,
                          const data::Normalizer& normalizer) {
  SSTBAN_CHECK(model != nullptr);
  TrainStats stats;
  core::MemoryTracker::Global().ResetPeak();
  core::Timer total_timer;

  if (!model->IsTrainable()) {
    model->Fit(windows, split.train, normalizer);
    stats.epochs_run = 1;
    stats.total_train_seconds = total_timer.ElapsedSeconds();
    stats.seconds_per_epoch = stats.total_train_seconds;
    EvalResult val = Evaluate(model, windows, split.val, normalizer,
                              config_.batch_size, false,
                              config_.target_feature);
    stats.best_val_mae = val.overall.mae;
    stats.peak_memory_bytes = core::MemoryTracker::Global().peak_bytes();
    return stats;
  }

  std::vector<autograd::Variable> params = model->Parameters();
  optim::Adam optimizer(params, config_.learning_rate);
  optim::EarlyStopping early(config_.patience);
  core::Rng rng(config_.seed);
  const TrainingState state{model, &optimizer, &rng};
  std::vector<tensor::Tensor> best_params = SnapshotParams(params);
  double best_val = 1e30;
  std::vector<int64_t> order = split.train;
  int start_epoch = 0;

  TrainCheckpoint ckpt;
  if (!config_.checkpoint_dir.empty() && config_.resume &&
      ResumeTraining(config_.checkpoint_dir, split.train, config_.max_epochs,
                     state, &ckpt, &stats.resumed_from)) {
    early.RestoreState(ckpt.early_best, ckpt.early_stale);
    best_params = std::move(ckpt.best_params);
    best_val = ckpt.best_val;
    order = std::move(ckpt.order);
    stats.epoch_train_loss = std::move(ckpt.epoch_train_loss);
    start_epoch = ckpt.next_epoch;
    stats.epochs_run = start_epoch;
    stats.start_epoch = start_epoch;
    if (config_.verbose) {
      std::printf("[%s] resumed from %s (next epoch %d)\n",
                  model->name().c_str(), stats.resumed_from.c_str(),
                  start_epoch);
    }
    // The interrupted run may already have exhausted its patience (or
    // its epoch budget); in that case the loop below must not run at
    // all, exactly as it would not have continued uninterrupted.
    if (early.epochs_since_best() >= config_.patience) {
      start_epoch = config_.max_epochs;
    }
  }

  for (int epoch = start_epoch; epoch < config_.max_epochs; ++epoch) {
    model->SetTraining(true);
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    int64_t num_batches = 0;
    for (size_t begin = 0; begin < order.size(); begin += config_.batch_size) {
      size_t end = std::min(begin + config_.batch_size, order.size());
      std::vector<int64_t> indices(order.begin() + begin, order.begin() + end);
      core::StatusOr<float> loss =
          TrainStep(model, &optimizer, normalizer, windows.MakeBatch(indices),
                    Objective::kTraining);
      SSTBAN_CHECK(loss.ok()) << loss.status().ToString();
      epoch_loss += loss.value();
      ++num_batches;
    }
    epoch_loss /= static_cast<double>(num_batches);
    stats.epoch_train_loss.push_back(epoch_loss);
    ++stats.epochs_run;

    EvalResult val = Evaluate(model, windows, split.val, normalizer,
                              config_.batch_size, false,
                              config_.target_feature);
    if (config_.verbose) {
      std::printf("[%s] epoch %d  train loss %.4f  val %s\n",
                  model->name().c_str(), epoch, epoch_loss,
                  val.overall.ToString().c_str());
    }
    if (val.overall.mae < best_val) {
      best_val = val.overall.mae;
      best_params = SnapshotParams(params);
    }
    bool stop_early = early.Update(static_cast<float>(val.overall.mae));
    bool stop_requested =
        config_.stop_requested != nullptr && config_.stop_requested();
    bool last_epoch = epoch + 1 >= config_.max_epochs;
    if (!config_.checkpoint_dir.empty() &&
        ((epoch + 1) % std::max(config_.checkpoint_every_epochs, 1) == 0 ||
         stop_early || stop_requested || last_epoch)) {
      // The cadence is in *absolute* epochs so a resumed run writes the
      // same checkpoint files an uninterrupted one would.
      TrainCheckpoint next;
      next.next_epoch = epoch + 1;
      next.best_val = best_val;
      next.early_best = early.best_metric();
      next.early_stale = early.epochs_since_best();
      next.epoch_train_loss = stats.epoch_train_loss;
      next.order = order;
      next.best_params = best_params;
      WriteTrainingCheckpoint(config_.checkpoint_dir, state, std::move(next));
    }
    SSTBAN_FAILPOINT_NOTIFY("train_epoch_end");
    if (stop_requested) {
      stats.stopped_by_request = true;
      break;
    }
    if (stop_early) break;
  }

  RestoreParams(params, best_params);
  stats.best_val_mae = best_val;
  stats.total_train_seconds = total_timer.ElapsedSeconds();
  stats.seconds_per_epoch =
      stats.total_train_seconds / std::max(stats.epochs_run, 1);
  stats.peak_memory_bytes = core::MemoryTracker::Global().peak_bytes();
  return stats;
}

EvalResult Evaluate(TrafficModel* model, const data::WindowDataset& windows,
                    const std::vector<int64_t>& indices,
                    const data::Normalizer& normalizer, int64_t batch_size,
                    bool per_horizon, int target_feature) {
  SSTBAN_CHECK(!indices.empty());
  int64_t horizon = windows.output_len();
  MetricsAccumulator overall;
  std::vector<MetricsAccumulator> horizon_acc;
  if (per_horizon) {
    horizon_acc.assign(static_cast<size_t>(horizon), MetricsAccumulator());
  }
  core::Timer timer;
  double inference_seconds = 0.0;
  for (size_t begin = 0; begin < indices.size();
       begin += static_cast<size_t>(batch_size)) {
    size_t end = std::min(begin + static_cast<size_t>(batch_size), indices.size());
    std::vector<int64_t> batch_indices(indices.begin() + begin,
                                       indices.begin() + end);
    data::Batch batch = windows.MakeBatch(batch_indices);
    core::Timer inf;
    tensor::Tensor denorm = RunBatchedInference(model, normalizer, batch);
    inference_seconds += inf.ElapsedSeconds();
    tensor::Tensor truth = batch.y;
    if (target_feature >= 0) {
      denorm = tensor::Slice(denorm, -1, target_feature, 1);
      truth = tensor::Slice(truth, -1, target_feature, 1);
    }
    overall.Add(denorm, truth);
    if (per_horizon) {
      for (int64_t q = 0; q < horizon; ++q) {
        horizon_acc[q].Add(tensor::Slice(denorm, 1, q, 1),
                           tensor::Slice(truth, 1, q, 1));
      }
    }
  }
  EvalResult result;
  result.overall = overall.Compute();
  result.inference_seconds = inference_seconds;
  if (per_horizon) {
    for (auto& acc : horizon_acc) result.per_horizon.push_back(acc.Compute());
  }
  return result;
}

}  // namespace sstban::training
