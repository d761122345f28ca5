// The headline robustness gate: kill training at failpoint-chosen epochs in
// a subprocess, resume in a fresh process, and assert the final weights are
// bitwise identical to an uninterrupted run — at SSTBAN_NUM_THREADS=1 and 8.
// Uninterrupted runs at 1, 2, 4 and 8 threads must also write the same
// bytes: the pool width is fixed per process, so only a fresh process can
// change it.
//
// This binary has its own main(): when SSTBAN_CRASH_TEST_WORKER is set in
// the environment it runs one training job and exits instead of running
// gtest. The parent re-execs itself via std::system with the worker
// protocol in env vars, so crash schedules (abort() inside an injected
// failpoint) kill only the worker. fork() is not an option here: ThreadPool
// worker threads do not survive fork.

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "nn/serialization.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "training/checkpoint.h"
#include "training/trainer.h"

namespace {
std::string g_binary_path;  // absolute path of this test binary, for re-exec
}  // namespace

namespace sstban {

namespace fs = std::filesystem;
namespace model_ns = ::sstban::sstban;

constexpr int kEpochs = 4;

model_ns::SstbanConfig WorkerModelConfig() {
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

// One deterministic training job: world/model seeds are fixed, so any two
// workers given the same checkpoint directory history must converge to the
// same bytes.
int RunCrashTestWorker() {
  const char* dir = std::getenv("SSTBAN_WORKER_CKPT_DIR");
  const char* out = std::getenv("SSTBAN_WORKER_OUT");
  if (dir == nullptr || out == nullptr) {
    std::fprintf(stderr, "worker: missing SSTBAN_WORKER_* env\n");
    return 3;
  }
  data::SyntheticWorldConfig world;
  world.num_nodes = 4;
  world.num_corridors = 2;
  world.steps_per_day = 24;
  world.num_days = 5;
  world.seed = 57;
  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(world));
  data::WindowDataset windows(dataset, 6, 6);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanModel model(WorkerModelConfig());

  training::TrainerConfig config;
  config.max_epochs = kEpochs;
  config.batch_size = 8;
  config.checkpoint_dir = dir;
  training::Trainer(config).Train(&model, windows, split, normalizer);
  core::Status saved = nn::SaveParameters(model, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "worker: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Launches one worker. `failpoints` always overrides SSTBAN_FAILPOINTS (an
// empty string disarms anything inherited from the CI fault matrix), so
// each run injects exactly the schedule the scenario asks for.
int LaunchWorker(const std::string& ckpt_dir, const std::string& out,
                 const std::string& failpoints, int num_threads) {
  std::string cmd = "SSTBAN_CRASH_TEST_WORKER=1"
                    " SSTBAN_WORKER_CKPT_DIR='" + ckpt_dir + "'" +
                    " SSTBAN_WORKER_OUT='" + out + "'" +
                    " SSTBAN_FAILPOINTS='" + failpoints + "'" +
                    " SSTBAN_NUM_THREADS=" + std::to_string(num_threads) +
                    " '" + g_binary_path + "'";
  return std::system(cmd.c_str());
}

bool ExitedCleanly(int rc) { return WIFEXITED(rc) && WEXITSTATUS(rc) == 0; }
bool Died(int rc) {
  return WIFSIGNALED(rc) || (WIFEXITED(rc) && WEXITSTATUS(rc) != 0);
}

void KillResumeCompare(const std::string& tag, const std::string& schedule,
                       int num_threads) {
  std::string dir_ref = FreshDir(tag + "_ref");
  std::string out_ref = dir_ref + "/final_weights.bin";
  ASSERT_TRUE(ExitedCleanly(LaunchWorker(dir_ref, out_ref, "", num_threads)));

  std::string dir_cut = FreshDir(tag + "_cut");
  std::string out_cut = dir_cut + "/final_weights.bin";
  int rc = LaunchWorker(dir_cut, out_cut, schedule, num_threads);
  ASSERT_TRUE(Died(rc)) << "schedule '" << schedule
                        << "' did not kill the worker (rc=" << rc << ")";
  EXPECT_FALSE(fs::exists(out_cut)) << "killed run must not reach the end";
  ASSERT_FALSE(training::ListTrainCheckpoints(dir_cut).empty())
      << "killed run left no checkpoint to resume from";

  ASSERT_TRUE(ExitedCleanly(LaunchWorker(dir_cut, out_cut, "", num_threads)));
  EXPECT_EQ(ReadAll(out_ref), ReadAll(out_cut))
      << "resumed weights diverged from the uninterrupted run";
  // The full persisted training state converged too, not just the weights.
  std::string last = "/" + training::TrainCheckpointFileName(kEpochs);
  EXPECT_EQ(ReadAll(dir_ref + last), ReadAll(dir_cut + last));
}

TEST(CheckpointCrashTest, KillAfterEpochTwoThenResumeIsBitwiseIdentical) {
  KillResumeCompare("crash_epoch", "train_epoch_end=crash@2",
                    /*num_threads=*/1);
}

TEST(CheckpointCrashTest, KillAndResumeIsBitwiseIdenticalWithEightThreads) {
  KillResumeCompare("crash_epoch_mt", "train_epoch_end=crash@2",
                    /*num_threads=*/8);
}

// Trainer steps split each batch by item and add the items' gradients in
// item order on the calling thread, so the pool width cannot move a bit of
// the weights, the Adam moments or the mask stream.
TEST(CheckpointCrashTest, FinalCheckpointIsByteIdenticalAtAnyThreadCount) {
  const std::string last = "/" + training::TrainCheckpointFileName(kEpochs);
  std::string want_weights, want_checkpoint;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("SSTBAN_NUM_THREADS=" + std::to_string(threads));
    std::string dir = FreshDir("threads_" + std::to_string(threads));
    std::string out = dir + "/final_weights.bin";
    ASSERT_TRUE(ExitedCleanly(LaunchWorker(dir, out, "", threads)));
    if (threads == 1) {
      want_weights = ReadAll(out);
      want_checkpoint = ReadAll(dir + last);
      continue;
    }
    EXPECT_EQ(ReadAll(out), want_weights);
    EXPECT_EQ(ReadAll(dir + last), want_checkpoint);
  }
}

TEST(CheckpointCrashTest, CrashDuringCheckpointRenameResumesFromOlderOne) {
  // Dies mid-write of the epoch-2 checkpoint: the temp file is orphaned,
  // the final path never appears, and resume falls back to epoch 1 — and
  // still converges to identical bytes.
  KillResumeCompare("crash_rename", "ckpt_rename=crash@2", /*num_threads=*/1);
}

TEST(CheckpointCrashTest, KilledRunLeavesOnlyLoadableCheckpoints) {
  std::string dir = FreshDir("crash_inspect");
  std::string out = dir + "/final_weights.bin";
  int rc = LaunchWorker(dir, out, "ckpt_rename=crash@2", /*num_threads=*/1);
  ASSERT_TRUE(Died(rc));
  // Epoch 2's rename crashed, so only epoch 1 is at a final path — and it
  // must load cleanly.
  auto found = training::ListTrainCheckpoints(dir);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].find("000001"), std::string::npos);
  training::TrainCheckpoint state;
  core::Status loaded = training::LoadTrainCheckpoint(found[0], &state);
  // An environment fault schedule may fail the read itself; retry past it —
  // only persistent failures mean the file is actually torn.
  for (int retry = 0; !loaded.ok() && retry < 4 &&
                      loaded.message().find("injected by failpoint") !=
                          std::string::npos;
       ++retry) {
    loaded = training::LoadTrainCheckpoint(found[0], &state);
  }
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(state.next_epoch, 1);
}

}  // namespace
}  // namespace sstban

int main(int argc, char** argv) {
  g_binary_path = std::filesystem::absolute(argv[0]).string();
  if (std::getenv("SSTBAN_CRASH_TEST_WORKER") != nullptr) {
    return sstban::RunCrashTestWorker();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
