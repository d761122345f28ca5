// Checkpoint I/O and failpoint-overhead benchmark. Quantifies the two costs
// the crash-safety work must not introduce:
//
//   1. The inactive-failpoint tax: SSTBAN_FAILPOINT compiles into the I/O
//      hot spots, so its disarmed cost (one relaxed atomic load) must stay
//      in the single-nanosecond range. Armed-but-other-name cost (registry
//      lookup under a mutex) is reported for contrast.
//   2. Atomic checkpointing throughput: SaveParameters/LoadParameters with
//      the CRC32 footer, and the full TrainCheckpoint record round trip —
//      temp file + fsync + rename included.
//
// Emits a single JSON object on stdout; pass a path as argv[1] to also
// write it there. Exits nonzero if the disarmed failpoint costs more than
// 50 ns/op — generous enough for a noisy shared box, tight enough to catch
// an accidental mutex or map lookup on the fast path.

#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/timing.h"
#include "core/failpoint.h"
#include "core/rng.h"
#include "core/status.h"
#include "nn/mlp.h"
#include "nn/serialization.h"
#include "tensor/tensor.h"
#include "training/checkpoint.h"

namespace {

namespace core = ::sstban::core;
namespace nn = ::sstban::nn;
namespace t = ::sstban::tensor;
namespace training = ::sstban::training;
using ::sstban::bench::BenchNowSeconds;

// noinline so the failpoint check cannot be hoisted out of the timing loop.
__attribute__((noinline)) core::Status HitBenchPoint() {
  SSTBAN_FAILPOINT("bench_checkpoint_io_point");
  return core::Status::Ok();
}

double MeasureHitNs(int64_t iters) {
  int64_t ok = 0;
  double start = BenchNowSeconds();
  for (int64_t i = 0; i < iters; ++i) ok += HitBenchPoint().ok() ? 1 : 0;
  double elapsed = BenchNowSeconds() - start;
  if (ok != iters) std::abort();  // defeat dead-code elimination
  return elapsed / static_cast<double>(iters) * 1e9;
}

training::TrainCheckpoint MakeTrainState(core::Rng& rng, int64_t dim) {
  training::TrainCheckpoint state;
  state.next_epoch = 3;
  state.global_step = 300;
  state.shuffle_rng = rng.SaveState();
  state.best_val = 1.25;
  state.early_best = 1.25f;
  state.early_stale = 1;
  state.epoch_train_loss = {2.0, 1.5, 1.25};
  for (int64_t i = 0; i < 256; ++i) state.order.push_back(i);
  for (int i = 0; i < 8; ++i) {
    t::Tensor w = t::Tensor::RandomNormal(t::Shape{dim, dim}, rng);
    state.params.emplace_back("layer" + std::to_string(i) + ".w", w);
    state.adam_m.push_back(t::Tensor::Zeros(t::Shape{dim, dim}));
    state.adam_v.push_back(t::Tensor::Zeros(t::Shape{dim, dim}));
    state.best_params.push_back(w);
  }
  state.adam_step = 300;
  return state;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int64_t kHitIters = 2'000'000;
  constexpr int kIoIters = 40;

  // -- Failpoint tax --------------------------------------------------------
  core::FailPoint::ClearAll();
  double disarmed_ns = MeasureHitNs(kHitIters);
  // Arm an unrelated point: the hit now takes the slow path (registry
  // lookup) even though this point never fires.
  if (!core::FailPoint::Set("bench_other_point", "delay(0)@1").ok()) return 2;
  double armed_other_ns = MeasureHitNs(kHitIters / 10);
  core::FailPoint::ClearAll();

  // -- Parameter checkpoint (CRC32 + atomic replace) ------------------------
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/bench_checkpoint_io";
  std::filesystem::create_directories(dir);
  core::Rng rng(99);
  nn::Mlp model({256, 256, 256}, rng);
  std::string weights = dir + "/weights.bin";
  double start = BenchNowSeconds();
  for (int i = 0; i < kIoIters; ++i) {
    if (!nn::SaveParameters(model, weights).ok()) return 2;
  }
  double save_ms = (BenchNowSeconds() - start) / kIoIters * 1e3;
  start = BenchNowSeconds();
  for (int i = 0; i < kIoIters; ++i) {
    if (!nn::LoadParameters(&model, weights).ok()) return 2;
  }
  double load_ms = (BenchNowSeconds() - start) / kIoIters * 1e3;
  int64_t weights_bytes =
      static_cast<int64_t>(std::filesystem::file_size(weights));

  // -- TrainCheckpoint record ----------------------------------------------
  training::TrainCheckpoint state = MakeTrainState(rng, 128);
  std::string train_path = dir + "/" + training::TrainCheckpointFileName(3);
  start = BenchNowSeconds();
  for (int i = 0; i < kIoIters; ++i) {
    if (!training::SaveTrainCheckpoint(train_path, state).ok()) return 2;
  }
  double train_save_ms = (BenchNowSeconds() - start) / kIoIters * 1e3;
  training::TrainCheckpoint loaded;
  start = BenchNowSeconds();
  for (int i = 0; i < kIoIters; ++i) {
    if (!training::LoadTrainCheckpoint(train_path, &loaded).ok()) return 2;
  }
  double train_load_ms = (BenchNowSeconds() - start) / kIoIters * 1e3;
  int64_t train_bytes =
      static_cast<int64_t>(std::filesystem::file_size(train_path));
  std::filesystem::remove_all(dir);

  std::string json =
      "{\n"
      "  \"bench\": \"checkpoint_io\",\n"
      "  \"failpoint_disarmed_ns\": " + std::to_string(disarmed_ns) + ",\n"
      "  \"failpoint_armed_other_ns\": " + std::to_string(armed_other_ns) +
      ",\n"
      "  \"weights_bytes\": " + std::to_string(weights_bytes) + ",\n"
      "  \"weights_save_ms\": " + std::to_string(save_ms) + ",\n"
      "  \"weights_load_ms\": " + std::to_string(load_ms) + ",\n"
      "  \"train_ckpt_bytes\": " + std::to_string(train_bytes) + ",\n"
      "  \"train_ckpt_save_ms\": " + std::to_string(train_save_ms) + ",\n"
      "  \"train_ckpt_load_ms\": " + std::to_string(train_load_ms) + "\n"
      "}\n";
  std::fputs(json.c_str(), stdout);
  if (argc > 1) std::ofstream(argv[1]) << json;

  if (disarmed_ns > 50.0) {
    std::fprintf(stderr,
                 "FAIL: disarmed failpoint costs %.1f ns/op (budget 50) — "
                 "the inactive path must stay a single relaxed atomic load\n",
                 disarmed_ns);
    return 1;
  }
  return 0;
}
