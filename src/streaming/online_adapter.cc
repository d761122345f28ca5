#include "streaming/online_adapter.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "autograd/variable.h"
#include "core/check.h"
#include "core/failpoint.h"
#include "core/rng.h"
#include "optim/optimizer.h"
#include "training/checkpoint.h"
#include "training/trainer.h"

namespace sstban::streaming {

namespace {

// Every round fine-tunes at half the paper's training learning rate and
// samples its windows from one fixed stream. The stream is checkpointed, so
// a resumed round replays the identical sample sequence.
constexpr float kLearningRate = 5e-4f;
constexpr uint64_t kSamplingSeed = 17;

}  // namespace

OnlineAdapter::OnlineAdapter(OnlineAdapterOptions options)
    : options_(std::move(options)) {
  SSTBAN_CHECK_GT(options_.num_steps, 0);
}

core::StatusOr<AdaptReport> OnlineAdapter::Adapt(
    training::TrafficModel* model, const data::WindowDataset& windows,
    const std::vector<int64_t>& indices,
    const data::Normalizer& normalizer) const {
  SSTBAN_CHECK(model != nullptr);
  if (indices.empty()) {
    return core::Status::InvalidArgument("no adaptation windows");
  }
  if (!model->IsTrainable()) {
    return core::Status::FailedPrecondition(
        model->name() + " is not gradient-trainable");
  }

  std::vector<autograd::Variable> params = model->Parameters();
  optim::Adam optimizer(params, kLearningRate);
  core::Rng rng(kSamplingSeed);
  const training::TrainingState state{model, &optimizer, &rng};
  AdaptReport report;

  training::TrainCheckpoint ckpt;
  if (!options_.checkpoint_dir.empty() &&
      training::ResumeTraining(options_.checkpoint_dir, indices,
                               options_.num_steps, state, &ckpt,
                               &report.resumed_from)) {
    report.step_loss = std::move(ckpt.epoch_train_loss);
    report.start_step = ckpt.next_epoch;
  }

  auto write_checkpoint = [&](int64_t next_step) {
    // The adapt_ckpt_write failpoint models "the checkpoint layer itself is
    // down": an error action skips the write (warn-only, the round goes on);
    // a crash action kills the process here, which is exactly the window the
    // kill-and-resume matrix exercises.
    core::Status gate = core::FailPointStatus("adapt_ckpt_write");
    if (!gate.ok()) {
      std::fprintf(stderr, "[adapt] checkpoint write skipped: %s\n",
                   gate.ToString().c_str());
      return;
    }
    training::TrainCheckpoint next;
    next.next_epoch = static_cast<int32_t>(next_step);
    next.epoch_train_loss = report.step_loss;
    next.order = indices;
    // The adapter keeps no best-epoch snapshot (promotion gating happens in
    // the shadow evaluator); the record format wants a mirror, share weights.
    for (const autograd::Variable& p : params) {
      next.best_params.push_back(p.value());
    }
    training::WriteTrainingCheckpoint(options_.checkpoint_dir, state,
                                      std::move(next));
  };

  const int64_t pool = static_cast<int64_t>(indices.size());
  const int64_t k = std::min(kBatchSize, pool);
  model->SetTraining(true);
  for (int64_t step = report.start_step; step < options_.num_steps; ++step) {
    SSTBAN_FAILPOINT("adapt_step");
    std::vector<int64_t> picks = rng.SampleWithoutReplacement(pool, k);
    std::vector<int64_t> batch_indices(picks.size());
    for (size_t i = 0; i < picks.size(); ++i) {
      batch_indices[i] = indices[static_cast<size_t>(picks[i])];
    }
    core::StatusOr<float> loss = training::TrainStep(
        model, &optimizer, normalizer, windows.MakeBatch(batch_indices),
        training::Objective::kSelfSupervised);
    if (!loss.ok()) {
      model->SetTraining(false);
      return core::Status::FailedPrecondition(
          model->name() + " exposes no label-free objective; cannot adapt "
          "online without ground truth");
    }
    report.step_loss.push_back(loss.value());
    ++report.steps_run;
    if (!options_.checkpoint_dir.empty() &&
        ((step + 1) % kCheckpointEvery == 0 ||
         step + 1 == options_.num_steps)) {
      // Cadence in *absolute* steps, so a resumed round writes the same
      // checkpoint files an uninterrupted one would — byte-comparable.
      write_checkpoint(step + 1);
    }
  }
  model->SetTraining(false);
  return report;
}

}  // namespace sstban::streaming
