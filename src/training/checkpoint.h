#ifndef SSTBAN_TRAINING_CHECKPOINT_H_
#define SSTBAN_TRAINING_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "optim/optimizer.h"
#include "tensor/tensor.h"
#include "training/model.h"

namespace sstban::training {

// Everything a training loop (Trainer::Train, OnlineAdapter::Adapt) needs to
// continue a run at an epoch or step boundary exactly as if it had never
// stopped: model weights, the full Adam state, both RNG streams, the
// cumulative shuffle order, the early-stopping counters, and the best-epoch
// snapshot. The contract (pinned by the kill-and-resume tests) is *bitwise*
// resume: an interrupted-and-resumed run produces final parameters identical
// to an uninterrupted one.
//
// On disk: magic "SSTT" | uint32 version | record fields | uint32 CRC32
// over every preceding byte, written via core::WriteFileAtomic. Timing
// stats are deliberately excluded so checkpoint files from equivalent runs
// are byte-comparable.
struct TrainCheckpoint {
  int32_t next_epoch = 0;   // first epoch the resumed run should execute
  int64_t global_step = 0;  // optimizer steps taken so far

  core::Rng::State shuffle_rng;  // the loop's shuffle or sampling stream
  bool has_model_rng = false;    // model-internal stream (SSTBAN masking)
  core::Rng::State model_rng;

  double best_val = 1e30;  // best validation MAE so far
  float early_best = 0.0f;
  int32_t early_stale = 0;

  std::vector<double> epoch_train_loss;
  std::vector<int64_t> order;  // cumulative shuffle order (loop-carried)

  std::vector<std::pair<std::string, tensor::Tensor>> params;
  int64_t adam_step = 0;
  std::vector<tensor::Tensor> adam_m;  // shapes mirror `params`
  std::vector<tensor::Tensor> adam_v;
  std::vector<tensor::Tensor> best_params;
};

core::Status SaveTrainCheckpoint(const std::string& path,
                                 const TrainCheckpoint& state);

// Parses and checksum-verifies; also validates the internal invariants
// (moment/best tensor lists mirror `params` in count and shape) so callers
// can trust the record wholesale.
core::Status LoadTrainCheckpoint(const std::string& path,
                                 TrainCheckpoint* state);

// "train_epoch_000007.ckpt" — zero-padded so lexical order == epoch order.
std::string TrainCheckpointFileName(int epoch);

// Absolute paths of all train checkpoints in `dir`, newest (highest epoch)
// first. Temp files from in-flight or crashed writes are ignored.
std::vector<std::string> ListTrainCheckpoints(const std::string& dir);

// Loads the newest checkpoint in `dir` that parses and passes its checksum.
// Corrupt or truncated files are skipped with a warning on stderr — a torn
// checkpoint must cost at most one checkpoint interval, never the run.
// Returns NotFound when the directory holds no valid checkpoint.
core::Status LoadNewestValidTrainCheckpoint(const std::string& dir,
                                            TrainCheckpoint* state,
                                            std::string* path_out);

// The state every training loop checkpoints besides its own loop fields:
// the model's weights and masking stream, the optimizer, and the loop's
// sampling stream (TrainCheckpoint::shuffle_rng).
struct TrainingState {
  TrafficModel* model = nullptr;
  optim::Adam* optimizer = nullptr;
  core::Rng* rng = nullptr;
};

// Resumes `state` from the newest valid checkpoint in `dir` when the same run
// wrote it: identical parameter names and shapes, the same `indices` in any
// order (TrainCheckpoint::order), a model stream exactly when the model has
// one, and next_epoch <= max_next_epoch. On a match it restores the weights,
// the Adam state and both streams, and returns true with the record in
// *ckpt, for the loop's own fields, and its path in *from. Otherwise the run
// starts fresh: it returns false, with a warning when `dir` held a valid
// checkpoint of another run.
bool ResumeTraining(const std::string& dir, const std::vector<int64_t>& indices,
                    int64_t max_next_epoch, const TrainingState& state,
                    TrainCheckpoint* ckpt, std::string* from);

// Completes `ckpt`, whose loop fields the caller has set, with the state the
// resume restores (the weights share storage), and saves it atomically as
// dir/TrainCheckpointFileName(ckpt.next_epoch), creating `dir` if needed. A
// failed write is a warning: checkpointing is a safety net, not a
// dependency, so a full disk or an injected I/O fault must not kill a
// healthy run.
void WriteTrainingCheckpoint(const std::string& dir, const TrainingState& state,
                             TrainCheckpoint ckpt);

}  // namespace sstban::training

#endif  // SSTBAN_TRAINING_CHECKPOINT_H_
