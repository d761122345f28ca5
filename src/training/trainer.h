#ifndef SSTBAN_TRAINING_TRAINER_H_
#define SSTBAN_TRAINING_TRAINER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "core/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "optim/optimizer.h"
#include "training/metrics.h"
#include "training/model.h"

namespace sstban::training {

struct TrainerConfig {
  int max_epochs = 30;
  int patience = 5;        // the paper's early-stopping patience
  int64_t batch_size = 4;  // the paper's batch size
  float learning_rate = 1e-3f;  // the paper's learning rate
  uint64_t seed = 7;  // seeds the per-epoch shuffle
  bool verbose = false;
  // Feature channel metrics are computed on (-1 = all channels). The
  // Seattle scenarios input (flow, speed, occupancy) but report *speed*
  // errors, i.e. target_feature = 1.
  int target_feature = -1;

  // Crash-safe resumable training. When `checkpoint_dir` is non-empty,
  // Train writes a TrainCheckpoint there every `checkpoint_every_epochs`
  // epochs (atomic write, CRC footer) plus at the final epoch, and — unless
  // `resume` is false — starts by restoring the newest *valid* checkpoint
  // in the directory (corrupt ones are skipped with a warning) when this
  // run wrote it, at most `max_epochs` epochs in; otherwise the run starts
  // fresh. Resume is bitwise: the continued run produces parameters
  // identical to an uninterrupted one. A failed checkpoint write is a
  // warning, not a training failure.
  std::string checkpoint_dir;
  int checkpoint_every_epochs = 1;
  bool resume = true;

  // Cooperative shutdown hook, polled at each epoch boundary (e.g. wired to
  // a SIGINT flag). When it returns true, Train checkpoints (if configured)
  // and returns cleanly with best-epoch weights restored.
  std::function<bool()> stop_requested;
};

// Timing / footprint record for the Table VII computation-cost comparison.
struct TrainStats {
  int epochs_run = 0;
  double total_train_seconds = 0.0;
  double seconds_per_epoch = 0.0;
  double best_val_mae = 0.0;
  int64_t peak_memory_bytes = 0;
  std::vector<double> epoch_train_loss;
  // Resume diagnostics: the epoch this run started from (0 = fresh) and the
  // checkpoint it restored, if any. Timing fields cover the current process
  // only; epochs_run and epoch_train_loss span the whole logical run.
  int start_epoch = 0;
  std::string resumed_from;
  // True when config.stop_requested interrupted the run at an epoch
  // boundary before max_epochs / early stopping ended it.
  bool stopped_by_request = false;
};

struct EvalResult {
  Metrics overall;
  // Metrics at each forecast step 1..Q (Fig. 4's horizon curves); filled
  // only when requested.
  std::vector<Metrics> per_horizon;
  // Time in RunBatchedInference: normalize, forward, denormalize.
  double inference_seconds = 0.0;
};

// Mini-batch gradient trainer implementing the paper's protocol: Adam at
// lr 1e-3, batch size 4, early stopping on validation MAE with patience 5,
// best-epoch weights restored at the end. Non-trainable models (HA, VAR)
// are fitted in closed form instead.
class Trainer {
 public:
  explicit Trainer(TrainerConfig config) : config_(config) {}

  TrainStats Train(TrafficModel* model, const data::WindowDataset& windows,
                   const data::SplitIndices& split,
                   const data::Normalizer& normalizer);

  const TrainerConfig& config() const { return config_; }

 private:
  TrainerConfig config_;
};

// One optimizer step of `objective` on `batch` (raw signals), shared by
// every training loop and split by item: the calling thread draws every
// item's masks in item order (TrafficModel::DrawItemMask); each item's loss
// and backward run as one task (RunItems), handing its gradients to storage
// it owns; the calling thread adds them in item order, scales by 1/B, clips
// the global norm at 5 and applies Adam. A step is thus bitwise the same at
// any pool width. Returns the mean item loss, or FailedPrecondition, with no
// parameter moved, when the model has no loss for `objective`.
core::StatusOr<float> TrainStep(TrafficModel* model, optim::Adam* optimizer,
                                const data::Normalizer& normalizer,
                                const data::Batch& batch, Objective objective);

// Runs the model over the given windows, `batch_size` at a time through
// RunBatchedInference (eval mode, gradients off), and aggregates
// denormalized metrics.
EvalResult Evaluate(TrafficModel* model, const data::WindowDataset& windows,
                    const std::vector<int64_t>& indices,
                    const data::Normalizer& normalizer, int64_t batch_size,
                    bool per_horizon = false, int target_feature = -1);

}  // namespace sstban::training

#endif  // SSTBAN_TRAINING_TRAINER_H_
