// Kill-and-resume matrix for the online adapter: a subprocess runs one
// adaptation round and is killed by a crash-action failpoint at each stage
// of the checkpoint lifecycle (mid-step, at the checkpoint-write gate, mid
// checkpoint rename); the resumed run must finish with weights — and a final
// persisted checkpoint — bitwise identical to an uninterrupted round, at
// SSTBAN_NUM_THREADS=1 and 8.
//
// Same worker protocol as checkpoint_crash_test: this binary has its own
// main() and re-execs itself (SSTBAN_CRASH_TEST_WORKER) so the crash kills
// only the worker; fork() is not an option because ThreadPool workers do
// not survive fork.

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
#include "streaming/online_adapter.h"
#include "training/checkpoint.h"

namespace {
std::string g_binary_path;  // absolute path of this test binary, for re-exec
}  // namespace

namespace sstban {

namespace fs = std::filesystem;
namespace model_ns = ::sstban::sstban;

// Checkpoints land at steps 8 and 16 (OnlineAdapter::kCheckpointEvery) and
// at the final step 18.
constexpr int64_t kAdaptSteps = 18;

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
  config.seed = 31;
  return config;
}

// One deterministic adaptation round: fixed world, fixed model seed, fixed
// sampling seed — any two workers sharing a checkpoint directory history
// must converge to the same bytes.
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
  world.num_days = 4;
  world.seed = 61;
  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(world));
  data::WindowDataset windows(dataset, 6, 6);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 16; ++i) indices.push_back(i);

  model_ns::SstbanModel model(WorkerModelConfig());
  streaming::OnlineAdapterOptions options;
  options.num_steps = kAdaptSteps;
  options.checkpoint_dir = dir;
  auto report = streaming::OnlineAdapter(options).Adapt(&model, windows,
                                                        indices, normalizer);
  if (!report.ok()) {
    std::fprintf(stderr, "worker: %s\n", report.status().ToString().c_str());
    return 1;
  }
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

// `failpoints` always overrides SSTBAN_FAILPOINTS (empty disarms anything
// the CI fault matrix put in the environment), so each worker run injects
// exactly the schedule its scenario asks for.
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
  std::string out_ref = dir_ref + "/adapted_weights.bin";
  ASSERT_TRUE(ExitedCleanly(LaunchWorker(dir_ref, out_ref, "", num_threads)));

  std::string dir_cut = FreshDir(tag + "_cut");
  std::string out_cut = dir_cut + "/adapted_weights.bin";
  int rc = LaunchWorker(dir_cut, out_cut, schedule, num_threads);
  ASSERT_TRUE(Died(rc)) << "schedule '" << schedule
                        << "' did not kill the worker (rc=" << rc << ")";
  EXPECT_FALSE(fs::exists(out_cut)) << "killed round must not reach the end";
  ASSERT_FALSE(training::ListTrainCheckpoints(dir_cut).empty())
      << "killed round left no checkpoint to resume from";

  ASSERT_TRUE(ExitedCleanly(LaunchWorker(dir_cut, out_cut, "", num_threads)));
  EXPECT_EQ(ReadAll(out_ref), ReadAll(out_cut))
      << "resumed adapted weights diverged from the uninterrupted round";
  // The full persisted adapter state converged too, not just the weights.
  std::string last =
      "/" + training::TrainCheckpointFileName(static_cast<int>(kAdaptSteps));
  EXPECT_EQ(ReadAll(dir_ref + last), ReadAll(dir_cut + last));
}

// Stage 1: killed mid fine-tuning step (the 17th step, past the step-16
// checkpoint).
TEST(StreamingCrashTest, KillMidAdaptStepResumesBitwise) {
  KillResumeCompare("adapt_step", "adapt_step=crash@17", /*num_threads=*/1);
}

TEST(StreamingCrashTest, KillMidAdaptStepResumesBitwiseEightThreads) {
  KillResumeCompare("adapt_step_mt", "adapt_step=crash@17",
                    /*num_threads=*/8);
}

// Stage 2: killed at the checkpoint-write gate itself (the second write,
// i.e. after step 16 ran but before its state persisted): resume falls back
// to the step-8 checkpoint and replays.
TEST(StreamingCrashTest, KillAtCheckpointWriteGateResumesBitwise) {
  KillResumeCompare("ckpt_gate", "adapt_ckpt_write=crash@2",
                    /*num_threads=*/1);
}

TEST(StreamingCrashTest, KillAtCheckpointWriteGateResumesBitwiseEightThreads) {
  KillResumeCompare("ckpt_gate_mt", "adapt_ckpt_write=crash@2",
                    /*num_threads=*/8);
}

// Stage 3: killed inside the checkpoint layer, mid-rename: the step-16
// checkpoint's temp file is orphaned, its final path never appears, and
// resume falls back to step 8 — the atomic-write contract the adapter
// inherits from training::SaveTrainCheckpoint.
TEST(StreamingCrashTest, KillMidCheckpointRenameResumesFromOlderOne) {
  KillResumeCompare("ckpt_rename", "ckpt_rename=crash@2", /*num_threads=*/1);
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
