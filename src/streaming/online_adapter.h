#ifndef SSTBAN_STREAMING_ONLINE_ADAPTER_H_
#define SSTBAN_STREAMING_ONLINE_ADAPTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "training/model.h"

namespace sstban::streaming {

struct OnlineAdapterOptions {
  // Fine-tuning steps per adaptation round.
  int64_t num_steps = 48;
  // Crash-safety: when non-empty, the adapter persists a full-state
  // training::TrainCheckpoint here every OnlineAdapter::kCheckpointEvery
  // steps (and at the final step) via core::WriteFileAtomic, and continues
  // from the newest valid checkpoint instead of starting over. The directory
  // must be dedicated to one adaptation round: stale checkpoints from an
  // architecture- or window-compatible *previous* round would otherwise
  // resume into the wrong run.
  std::string checkpoint_dir;
};

struct AdaptReport {
  int64_t steps_run = 0;          // steps executed by this call
  int64_t start_step = 0;         // > 0 when resumed from a checkpoint
  std::string resumed_from;       // checkpoint path, empty if fresh
  std::vector<double> step_loss;  // per-step SSL loss, resumed prefix included
};

// Incremental label-free fine-tuning: on confirmed drift the controller hands
// this a candidate model plus recent windows, and the adapter runs
// `num_steps` of Adam on TrafficModel::SelfSupervisedLoss — the paper's
// masked-reconstruction branch alone, which needs no ground-truth future.
//
// Crash-safety contract (pinned by streaming_crash_test at 1 and 8 threads):
// a round killed at any armed failpoint and re-run resumes from its last
// checkpoint and finishes with weights *bitwise identical* to an
// uninterrupted round. Everything stochastic is checkpointed: model weights,
// Adam step/moments, the sampling RNG, and the model's mask RNG.
class OnlineAdapter {
 public:
  // Windows sampled per step, and the checkpoint cadence in absolute steps.
  static constexpr int64_t kBatchSize = 8;
  static constexpr int64_t kCheckpointEvery = 8;

  explicit OnlineAdapter(OnlineAdapterOptions options);

  // Fine-tunes `model` in place on the windows named by `indices` (positions
  // into `windows`), normalizing inputs with the *serving* normalizer — the
  // statistics the weights were trained under. Each step is one
  // training::TrainStep of the self-supervised objective. Errors:
  //   FailedPrecondition — the model exposes no label-free objective
  //                        (SelfSupervisedLoss undefined) or is not trainable;
  //   InvalidArgument    — empty `indices`;
  //   anything else      — an injected `adapt_step` fault, propagated.
  // Checkpoint write failures never abort the round (warn and continue) —
  // checkpointing is the safety net, not a dependency.
  core::StatusOr<AdaptReport> Adapt(training::TrafficModel* model,
                                    const data::WindowDataset& windows,
                                    const std::vector<int64_t>& indices,
                                    const data::Normalizer& normalizer) const;

  const OnlineAdapterOptions& options() const { return options_; }

 private:
  OnlineAdapterOptions options_;
};

}  // namespace sstban::streaming

#endif  // SSTBAN_STREAMING_ONLINE_ADAPTER_H_
