// Crash-safe checkpointing and bitwise-resumable training.
//
// Covers: the atomic write protocol (no fault schedule can leave a torn
// file at the destination path), the CRC32-checksummed parameter and
// TrainState formats (v1 legacy files stay readable), newest-valid resume
// with corrupt checkpoints skipped, early-stopping state pinning, and the
// in-process half of the bitwise resume contract. The kill-at-a-failpoint
// half lives in checkpoint_crash_test.cc (it needs subprocesses).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/failpoint.h"
#include "core/file_io.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "nn/mlp.h"
#include "nn/serialization.h"
#include "optim/optimizer.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "training/checkpoint.h"
#include "training/trainer.h"

namespace sstban {
namespace {

namespace fs = std::filesystem;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void FlipMiddleByte(const std::string& path) {
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] ^= 0x5A;
  WriteAll(path, bytes);
}

// A unique per-test scratch directory (gtest's TempDir is shared).
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool HasTempFiles(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      return true;
    }
  }
  return false;
}

class FailPointGuard {
 public:
  ~FailPointGuard() { core::FailPoint::ClearAll(); }
};

// -- Atomic writes -----------------------------------------------------------

TEST(AtomicWriteTest, ReplacesContentAndLeavesNoTemp) {
  std::string dir = FreshDir("atomic_basic");
  std::string path = dir + "/file.bin";
  ASSERT_TRUE(core::WriteFileAtomic(path, "old-content").ok());
  ASSERT_TRUE(core::WriteFileAtomic(path, "new-content").ok());
  EXPECT_EQ(ReadAll(path), "new-content");
  EXPECT_FALSE(HasTempFiles(dir));
}

TEST(AtomicWriteTest, EveryWriteFailpointLeavesOldContentIntact) {
  FailPointGuard guard;
  for (const char* fp : {"ckpt_write_open", "ckpt_write_mid",
                         "ckpt_write_fsync", "ckpt_rename"}) {
    std::string dir = FreshDir(std::string("atomic_") + fp);
    std::string path = dir + "/file.bin";
    ASSERT_TRUE(core::WriteFileAtomic(path, "old-content").ok());
    ASSERT_TRUE(core::FailPoint::Set(fp, "error(kIoError)@1").ok());
    core::Status status = core::WriteFileAtomic(path, "REPLACEMENT");
    core::FailPoint::ClearAll();
    EXPECT_EQ(status.code(), core::StatusCode::kIoError) << fp;
    EXPECT_EQ(ReadAll(path), "old-content") << fp;
    EXPECT_FALSE(HasTempFiles(dir)) << fp;
    // The failpoint was single-shot: the next write goes through.
    ASSERT_TRUE(core::WriteFileAtomic(path, "after").ok());
    EXPECT_EQ(ReadAll(path), "after") << fp;
  }
}

TEST(AtomicWriteTest, FaultBeforeRenameLeavesNoFileAtFreshPath) {
  FailPointGuard guard;
  std::string dir = FreshDir("atomic_fresh");
  std::string path = dir + "/never_created.bin";
  ASSERT_TRUE(core::FailPoint::Set("ckpt_rename", "error(kIoError)@1").ok());
  EXPECT_FALSE(core::WriteFileAtomic(path, "data").ok());
  core::FailPoint::ClearAll();
  EXPECT_FALSE(fs::exists(path));
}

// -- Parameter checkpoint format (v2; v1 refused) ----------------------------

TEST(SerializationV2Test, CorruptByteIsRejectedByChecksum) {
  std::string dir = FreshDir("ser_crc");
  std::string path = dir + "/model.bin";
  core::Rng rng(1);
  nn::Mlp model({4, 8, 2}, rng);
  ASSERT_TRUE(nn::SaveParameters(model, path).ok());
  // Flip a byte inside the last tensor's float payload (just ahead of the
  // 4-byte footer): the body still parses, so only the CRC can catch it.
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 6] ^= 0x5A;
  WriteAll(path, bytes);
  core::Rng rng2(2);
  nn::Mlp reload({4, 8, 2}, rng2);
  core::Status status = nn::LoadParameters(&reload, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kIoError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

// Version 1 had no CRC footer, so a file claiming it could carry payload bit
// flips that nothing detects: the loader refuses it as an unsupported
// version and leaves the module as it was.
TEST(SerializationV2Test, VersionOneFileIsRejected) {
  std::string dir = FreshDir("ser_v1");
  std::string path = dir + "/legacy.bin";
  core::Rng rng(3);
  nn::Mlp model({3, 5, 1}, rng);
  // Manufacture the pre-CRC on-disk layout: same body, version 1, no footer.
  core::BufferWriter w;
  w.Bytes("SSTB", 4);
  w.Pod(static_cast<uint32_t>(1));
  auto named = model.NamedParameters();
  w.Pod(static_cast<uint64_t>(named.size()));
  for (const auto& [name, param] : named) {
    w.Pod(static_cast<uint64_t>(name.size()));
    w.Bytes(name.data(), name.size());
    nn::AppendTensor(w, param.value());
  }
  WriteAll(path, w.str());

  core::Rng rng2(4);
  nn::Mlp reload({3, 5, 1}, rng2);
  std::vector<std::vector<float>> before;
  for (const auto& [name, param] : reload.NamedParameters()) {
    before.push_back(param.value().ToVector());
  }
  core::Status status = nn::LoadParameters(&reload, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unsupported checkpoint version 1"),
            std::string::npos)
      << status.ToString();
  auto after = reload.NamedParameters();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].second.value().ToVector(), before[i]) << after[i].first;
  }
}

TEST(SerializationV2Test, SaveIsAtomicUnderInjectedFault) {
  FailPointGuard guard;
  std::string dir = FreshDir("ser_atomic");
  std::string path = dir + "/model.bin";
  core::Rng rng(5);
  nn::Mlp original({4, 4}, rng);
  ASSERT_TRUE(nn::SaveParameters(original, path).ok());

  core::Rng rng2(6);
  nn::Mlp changed({4, 4}, rng2);
  ASSERT_TRUE(core::FailPoint::Set("ckpt_write_mid", "error(kIoError)@1").ok());
  EXPECT_FALSE(nn::SaveParameters(changed, path).ok());
  core::FailPoint::ClearAll();

  // The destination still holds the *original*, fully valid checkpoint.
  core::Rng rng3(7);
  nn::Mlp reload({4, 4}, rng3);
  ASSERT_TRUE(nn::LoadParameters(&reload, path).ok());
  auto a = original.NamedParameters();
  auto b = reload.NamedParameters();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(a[i].second.value().data(),
                          b[i].second.value().data(),
                          sizeof(float) *
                              static_cast<size_t>(a[i].second.value().size())),
              0);
  }
}

// -- TrainCheckpoint format --------------------------------------------------

training::TrainCheckpoint MakeState() {
  training::TrainCheckpoint state;
  state.next_epoch = 7;
  state.global_step = 91;
  state.shuffle_rng = {0x1234567890abcdefULL, 0x2468ace13579bdf1ULL, true,
                       0.25f};
  state.has_model_rng = true;
  state.model_rng = {42, 99, false, 0.0f};
  state.best_val = 3.14159;
  state.early_best = 2.5f;
  state.early_stale = 3;
  state.epoch_train_loss = {1.5, 1.25, 1.125};
  state.order = {4, 2, 0, 1, 3};
  state.params.emplace_back("layer.w",
                            t::Tensor::FromVector(t::Shape{2, 2}, {1, 2, 3, 4}));
  state.params.emplace_back("layer.b",
                            t::Tensor::FromVector(t::Shape{2}, {5, 6}));
  state.adam_step = 91;
  state.adam_m = {t::Tensor::Full(t::Shape{2, 2}, 0.1f),
                  t::Tensor::Full(t::Shape{2}, 0.2f)};
  state.adam_v = {t::Tensor::Full(t::Shape{2, 2}, 0.3f),
                  t::Tensor::Full(t::Shape{2}, 0.4f)};
  state.best_params = {t::Tensor::Full(t::Shape{2, 2}, 7.0f),
                       t::Tensor::Full(t::Shape{2}, 8.0f)};
  return state;
}

void ExpectTensorEq(const t::Tensor& a, const t::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.size())),
            0);
}

TEST(TrainCheckpointTest, RoundTripRestoresEveryField) {
  std::string dir = FreshDir("ts_roundtrip");
  std::string path = dir + "/" + training::TrainCheckpointFileName(7);
  training::TrainCheckpoint state = MakeState();
  ASSERT_TRUE(training::SaveTrainCheckpoint(path, state).ok());

  training::TrainCheckpoint loaded;
  ASSERT_TRUE(training::LoadTrainCheckpoint(path, &loaded).ok());
  EXPECT_EQ(loaded.next_epoch, state.next_epoch);
  EXPECT_EQ(loaded.global_step, state.global_step);
  EXPECT_EQ(loaded.shuffle_rng.state, state.shuffle_rng.state);
  EXPECT_EQ(loaded.shuffle_rng.inc, state.shuffle_rng.inc);
  EXPECT_EQ(loaded.shuffle_rng.has_spare, state.shuffle_rng.has_spare);
  EXPECT_EQ(loaded.shuffle_rng.spare, state.shuffle_rng.spare);
  EXPECT_EQ(loaded.has_model_rng, state.has_model_rng);
  EXPECT_EQ(loaded.model_rng.state, state.model_rng.state);
  EXPECT_EQ(loaded.best_val, state.best_val);
  EXPECT_EQ(loaded.early_best, state.early_best);
  EXPECT_EQ(loaded.early_stale, state.early_stale);
  EXPECT_EQ(loaded.epoch_train_loss, state.epoch_train_loss);
  EXPECT_EQ(loaded.order, state.order);
  ASSERT_EQ(loaded.params.size(), state.params.size());
  for (size_t i = 0; i < state.params.size(); ++i) {
    EXPECT_EQ(loaded.params[i].first, state.params[i].first);
    ExpectTensorEq(loaded.params[i].second, state.params[i].second);
    ExpectTensorEq(loaded.adam_m[i], state.adam_m[i]);
    ExpectTensorEq(loaded.adam_v[i], state.adam_v[i]);
    ExpectTensorEq(loaded.best_params[i], state.best_params[i]);
  }
  EXPECT_EQ(loaded.adam_step, state.adam_step);
}

TEST(TrainCheckpointTest, CorruptionAndTruncationAreRejected) {
  std::string dir = FreshDir("ts_corrupt");
  std::string path = dir + "/" + training::TrainCheckpointFileName(1);
  ASSERT_TRUE(training::SaveTrainCheckpoint(path, MakeState()).ok());
  std::string pristine = ReadAll(path);

  FlipMiddleByte(path);
  training::TrainCheckpoint loaded;
  EXPECT_EQ(training::LoadTrainCheckpoint(path, &loaded).code(),
            core::StatusCode::kIoError);

  WriteAll(path, pristine.substr(0, pristine.size() / 2));
  EXPECT_EQ(training::LoadTrainCheckpoint(path, &loaded).code(),
            core::StatusCode::kIoError);

  WriteAll(path, pristine + "garbage");
  EXPECT_EQ(training::LoadTrainCheckpoint(path, &loaded).code(),
            core::StatusCode::kIoError);
}

TEST(TrainCheckpointTest, ListIsNewestFirstAndIgnoresTempFiles) {
  std::string dir = FreshDir("ts_list");
  for (int epoch : {3, 1, 12}) {
    ASSERT_TRUE(
        training::SaveTrainCheckpoint(
            dir + "/" + training::TrainCheckpointFileName(epoch), MakeState())
            .ok());
  }
  WriteAll(dir + "/" + training::TrainCheckpointFileName(9) + ".tmp.123",
           "partial");
  WriteAll(dir + "/unrelated.txt", "hello");
  std::vector<std::string> found = training::ListTrainCheckpoints(dir);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_NE(found[0].find("000012"), std::string::npos);
  EXPECT_NE(found[1].find("000003"), std::string::npos);
  EXPECT_NE(found[2].find("000001"), std::string::npos);
}

TEST(TrainCheckpointTest, NewestValidSkipsCorruptAndWarns) {
  std::string dir = FreshDir("ts_skip");
  training::TrainCheckpoint state = MakeState();
  state.next_epoch = 1;
  std::string older = dir + "/" + training::TrainCheckpointFileName(1);
  ASSERT_TRUE(training::SaveTrainCheckpoint(older, state).ok());
  state.next_epoch = 2;
  std::string newer = dir + "/" + training::TrainCheckpointFileName(2);
  ASSERT_TRUE(training::SaveTrainCheckpoint(newer, state).ok());
  FlipMiddleByte(newer);

  training::TrainCheckpoint loaded;
  std::string from;
  ASSERT_TRUE(
      training::LoadNewestValidTrainCheckpoint(dir, &loaded, &from).ok());
  EXPECT_EQ(from, older);
  EXPECT_EQ(loaded.next_epoch, 1);

  FlipMiddleByte(older);
  EXPECT_EQ(training::LoadNewestValidTrainCheckpoint(dir, &loaded, &from).code(),
            core::StatusCode::kNotFound);
}

// -- Resumable training on the real model ------------------------------------

std::shared_ptr<data::TrafficDataset> TinyWorld() {
  data::SyntheticWorldConfig config;
  config.num_nodes = 4;
  config.num_corridors = 2;
  config.steps_per_day = 24;
  config.num_days = 5;
  config.seed = 21;
  return std::make_shared<data::TrafficDataset>(GenerateSyntheticWorld(config));
}

model_ns::SstbanConfig TinyModelConfig() {
  model_ns::SstbanConfig config;
  config.num_nodes = 4;
  config.input_len = 6;
  config.output_len = 6;
  config.num_features = 1;
  config.steps_per_day = 24;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  return config;
}

struct TrainRun {
  std::shared_ptr<data::TrafficDataset> dataset;
  std::unique_ptr<data::WindowDataset> windows;
  data::SplitIndices split;
  data::Normalizer normalizer;
  std::unique_ptr<model_ns::SstbanModel> model;
};

TrainRun MakeRun() {
  TrainRun run;
  run.dataset = TinyWorld();
  run.windows = std::make_unique<data::WindowDataset>(run.dataset, 6, 6);
  run.split = data::ChronologicalSplit(*run.windows);
  run.normalizer = data::Normalizer::Fit(run.dataset->signals);
  run.model = std::make_unique<model_ns::SstbanModel>(TinyModelConfig());
  return run;
}

training::TrainerConfig BaseTrainerConfig() {
  training::TrainerConfig config;
  config.max_epochs = 4;
  config.batch_size = 8;
  config.learning_rate = 1e-3f;
  return config;
}

void ExpectModelsBitwiseEqual(nn::Module& a, nn::Module& b) {
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].second.shape(), pb[i].second.shape()) << pa[i].first;
    EXPECT_EQ(std::memcmp(pa[i].second.value().data(),
                          pb[i].second.value().data(),
                          sizeof(float) *
                              static_cast<size_t>(pa[i].second.value().size())),
              0)
        << "parameter diverged after resume: " << pa[i].first;
  }
}

TEST(TrainerResumeTest, ResumeIsBitwiseIdenticalToUninterruptedRun) {
  // Reference: 4 epochs straight through, checkpointing each epoch.
  std::string dir_a = FreshDir("resume_ref");
  TrainRun ref = MakeRun();
  training::TrainerConfig config = BaseTrainerConfig();
  config.checkpoint_dir = dir_a;
  training::Trainer(config).Train(ref.model.get(), *ref.windows, ref.split,
                                  ref.normalizer);

  // Interrupted: 2 epochs, then a brand-new model + trainer resumes to 4.
  std::string dir_b = FreshDir("resume_cut");
  {
    TrainRun phase1 = MakeRun();
    training::TrainerConfig cut = BaseTrainerConfig();
    cut.max_epochs = 2;
    cut.checkpoint_dir = dir_b;
    training::Trainer(cut).Train(phase1.model.get(), *phase1.windows,
                                 phase1.split, phase1.normalizer);
  }
  TrainRun resumed = MakeRun();
  training::TrainerConfig cont = BaseTrainerConfig();
  cont.checkpoint_dir = dir_b;
  training::TrainStats stats = training::Trainer(cont).Train(
      resumed.model.get(), *resumed.windows, resumed.split,
      resumed.normalizer);
  EXPECT_EQ(stats.start_epoch, 2);
  EXPECT_FALSE(stats.resumed_from.empty());
  EXPECT_EQ(stats.epochs_run, 4);

  ExpectModelsBitwiseEqual(*ref.model, *resumed.model);
  // The whole persisted training state — weights, Adam moments, RNG
  // streams, patience counters, loss history — converged to identical
  // bytes, not just the weights.
  EXPECT_EQ(ReadAll(dir_a + "/" + training::TrainCheckpointFileName(4)),
            ReadAll(dir_b + "/" + training::TrainCheckpointFileName(4)));
}

TEST(TrainerResumeTest, CorruptNewestCheckpointFallsBackToOlderOne) {
  std::string dir_a = FreshDir("fallback_ref");
  TrainRun ref = MakeRun();
  training::TrainerConfig config = BaseTrainerConfig();
  config.checkpoint_dir = dir_a;
  training::Trainer(config).Train(ref.model.get(), *ref.windows, ref.split,
                                  ref.normalizer);

  std::string dir_b = FreshDir("fallback_cut");
  {
    TrainRun phase1 = MakeRun();
    training::TrainerConfig cut = BaseTrainerConfig();
    cut.max_epochs = 2;
    cut.checkpoint_dir = dir_b;
    training::Trainer(cut).Train(phase1.model.get(), *phase1.windows,
                                 phase1.split, phase1.normalizer);
  }
  // Tear the newest checkpoint; resume must drop back to epoch 1 and
  // re-run epoch 2 instead of aborting — and still land on identical bytes.
  FlipMiddleByte(dir_b + "/" + training::TrainCheckpointFileName(2));
  TrainRun resumed = MakeRun();
  training::TrainerConfig cont = BaseTrainerConfig();
  cont.checkpoint_dir = dir_b;
  training::TrainStats stats = training::Trainer(cont).Train(
      resumed.model.get(), *resumed.windows, resumed.split,
      resumed.normalizer);
  EXPECT_EQ(stats.start_epoch, 1);
  ExpectModelsBitwiseEqual(*ref.model, *resumed.model);
}

TEST(TrainerResumeTest, StopRequestCheckpointsAtEpochBoundaryAndResumes) {
  std::string dir_a = FreshDir("stop_ref");
  TrainRun ref = MakeRun();
  training::TrainerConfig config = BaseTrainerConfig();
  config.checkpoint_dir = dir_a;
  training::Trainer(config).Train(ref.model.get(), *ref.windows, ref.split,
                                  ref.normalizer);

  std::string dir_b = FreshDir("stop_cut");
  {
    TrainRun phase1 = MakeRun();
    training::TrainerConfig cut = BaseTrainerConfig();
    cut.checkpoint_dir = dir_b;
    cut.checkpoint_every_epochs = 100;  // only the stop should checkpoint
    int epochs_seen = 0;
    cut.stop_requested = [&epochs_seen] { return ++epochs_seen >= 2; };
    training::TrainStats stats = training::Trainer(cut).Train(
        phase1.model.get(), *phase1.windows, phase1.split, phase1.normalizer);
    EXPECT_TRUE(stats.stopped_by_request);
    EXPECT_EQ(stats.epochs_run, 2);
    EXPECT_TRUE(
        fs::exists(dir_b + "/" + training::TrainCheckpointFileName(2)));
  }
  TrainRun resumed = MakeRun();
  training::TrainerConfig cont = BaseTrainerConfig();
  cont.checkpoint_dir = dir_b;
  training::Trainer(cont).Train(resumed.model.get(), *resumed.windows,
                                resumed.split, resumed.normalizer);
  ExpectModelsBitwiseEqual(*ref.model, *resumed.model);
}

TEST(TrainerResumeTest, IncompatibleCheckpointStartsFresh) {
  std::string dir = FreshDir("incompat");
  {
    TrainRun phase1 = MakeRun();
    training::TrainerConfig cut = BaseTrainerConfig();
    cut.max_epochs = 2;
    cut.checkpoint_dir = dir;
    training::Trainer(cut).Train(phase1.model.get(), *phase1.windows,
                                 phase1.split, phase1.normalizer);
  }
  // Same directory, different architecture: the checkpoint must be
  // ignored, not crash the run or corrupt the model.
  TrainRun other = MakeRun();
  model_ns::SstbanConfig bigger = TinyModelConfig();
  bigger.hidden_dim = 8;
  auto model = std::make_unique<model_ns::SstbanModel>(bigger);
  training::TrainerConfig config = BaseTrainerConfig();
  config.max_epochs = 1;
  config.checkpoint_dir = dir;
  training::TrainStats stats = training::Trainer(config).Train(
      model.get(), *other.windows, other.split, other.normalizer);
  EXPECT_EQ(stats.start_epoch, 0);
  EXPECT_EQ(stats.epochs_run, 1);
}

TEST(TrainerResumeTest, ShorterRunTrainsItsOwnEpochsBesideALongerRun) {
  // A 3-epoch run leaves its checkpoints in the directory.
  std::string dir = FreshDir("longer_run");
  {
    TrainRun longer = MakeRun();
    training::TrainerConfig config = BaseTrainerConfig();
    config.max_epochs = 3;
    config.checkpoint_dir = dir;
    training::Trainer(config).Train(longer.model.get(), *longer.windows,
                                    longer.split, longer.normalizer);
  }
  // A 1-epoch run there must not take over the longer run's weights: it
  // trains its one epoch, bitwise equal to a 1-epoch run with no directory.
  TrainRun fresh = MakeRun();
  training::TrainerConfig one = BaseTrainerConfig();
  one.max_epochs = 1;
  training::Trainer(one).Train(fresh.model.get(), *fresh.windows, fresh.split,
                               fresh.normalizer);
  TrainRun rerun = MakeRun();
  one.checkpoint_dir = dir;
  training::TrainStats stats = training::Trainer(one).Train(
      rerun.model.get(), *rerun.windows, rerun.split, rerun.normalizer);
  EXPECT_EQ(stats.start_epoch, 0);
  EXPECT_EQ(stats.epochs_run, 1);
  ExpectModelsBitwiseEqual(*fresh.model, *rerun.model);
}

// -- Early stopping (previously untested) ------------------------------------

TEST(EarlyStoppingTest, PatienceCounterResetsOnImprovement) {
  optim::EarlyStopping early(3);
  EXPECT_FALSE(early.Update(10.0f));
  EXPECT_TRUE(early.improved_last_update());
  EXPECT_FALSE(early.Update(11.0f));  // stale 1
  EXPECT_FALSE(early.Update(12.0f));  // stale 2
  EXPECT_FALSE(early.Update(9.0f));   // improvement resets
  EXPECT_EQ(early.epochs_since_best(), 0);
  EXPECT_FLOAT_EQ(early.best_metric(), 9.0f);
  EXPECT_FALSE(early.Update(9.5f));
  EXPECT_FALSE(early.Update(9.5f));
  EXPECT_TRUE(early.Update(9.5f));  // stale 3 == patience -> stop
}

TEST(EarlyStoppingTest, RestoreStateContinuesCounting) {
  optim::EarlyStopping early(3);
  early.RestoreState(5.0f, 2);
  EXPECT_FLOAT_EQ(early.best_metric(), 5.0f);
  EXPECT_EQ(early.epochs_since_best(), 2);
  EXPECT_TRUE(early.Update(6.0f));  // third stale epoch triggers
}

TEST(EarlyStoppingTest, TrainerRestoresBestEpochWeights) {
  TrainRun run = MakeRun();
  training::TrainerConfig config = BaseTrainerConfig();
  config.max_epochs = 3;
  training::TrainStats stats = training::Trainer(config).Train(
      run.model.get(), *run.windows, run.split, run.normalizer);
  // The restored weights must reproduce the best validation MAE exactly —
  // this pins both the best-epoch snapshot and its restoration.
  training::EvalResult val = training::Evaluate(
      run.model.get(), *run.windows, run.split.val, run.normalizer,
      config.batch_size, false, config.target_feature);
  EXPECT_DOUBLE_EQ(val.overall.mae, stats.best_val_mae);
}

TEST(EarlyStoppingTest, ResumePreservesPatienceCounterExactly) {
  // Train with aggressive LR so validation MAE oscillates and the patience
  // counter takes nontrivial values; checkpoint every epoch.
  std::string dir_a = FreshDir("patience_ref");
  std::string dir_b = FreshDir("patience_cut");
  auto train = [&](const std::string& dir, int max_epochs) {
    TrainRun run = MakeRun();
    training::TrainerConfig config = BaseTrainerConfig();
    config.max_epochs = max_epochs;
    config.learning_rate = 0.05f;
    config.patience = 2;
    config.checkpoint_dir = dir;
    return training::Trainer(config).Train(run.model.get(), *run.windows,
                                           run.split, run.normalizer);
  };
  training::TrainStats ref = train(dir_a, 6);
  train(dir_b, 2);
  training::TrainStats resumed = train(dir_b, 6);
  EXPECT_EQ(resumed.epochs_run, ref.epochs_run);

  training::TrainCheckpoint a, b;
  ASSERT_TRUE(
      training::LoadNewestValidTrainCheckpoint(dir_a, &a, nullptr).ok());
  ASSERT_TRUE(
      training::LoadNewestValidTrainCheckpoint(dir_b, &b, nullptr).ok());
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.early_stale, b.early_stale);
  EXPECT_EQ(a.early_best, b.early_best);
  EXPECT_EQ(a.best_val, b.best_val);
}

}  // namespace
}  // namespace sstban
