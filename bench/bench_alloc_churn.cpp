// Allocation-churn benchmark: quantifies what the storage pool buys on the
// two hot paths — a full SSTBAN training step (forward + backward + Adam)
// and the serving forward (training::RunBatchedInference). For each mode
// (pool on / pool off) it reports heap allocations per step, pool hit rate,
// and steady-state latency, and asserts the transparency guarantee: one
// fresh training step is bitwise identical in loss and every parameter
// gradient either way.
//
// Emits a single JSON object on stdout (tables land in
// bench/BENCH_alloc_churn.json for the perf trajectory); pass a path as
// argv[1] to also write the JSON there. Exits nonzero if the bitwise check
// fails, the pool saves less than 10x on heap allocations per training
// step, or a warm pooled serving forward allocates from the heap at all.

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/timing.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "core/storage_pool.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "optim/optimizer.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/tensor.h"
#include "training/forecast_service.h"

namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
using sstban::bench::BenchNowSeconds;
using sstban::core::MemoryTracker;
using sstban::core::StoragePool;
using sstban::sstban::SstbanConfig;
using sstban::sstban::SstbanModel;

// A small-but-representative SSTBAN: big enough that a step runs hundreds
// of ops through every layer type, small enough for CI.
SstbanConfig BenchConfig() {
  SstbanConfig c;
  c.num_nodes = 12;
  c.input_len = 12;
  c.output_len = 12;
  c.num_features = 1;
  c.steps_per_day = 24;
  c.hidden_dim = 16;
  c.num_heads = 2;
  c.encoder_blocks = 2;
  c.decoder_blocks = 1;
  c.recon_blocks = 1;
  c.temporal_refs = 4;
  c.spatial_refs = 4;
  c.patch_len = 3;
  c.mask_rate = 0.25;
  c.lambda = 0.2;
  return c;
}

sstban::data::Batch MakeBatch(const SstbanConfig& c, int64_t batch_size) {
  sstban::core::Rng rng(42);
  sstban::data::Batch batch;
  batch.x = t::Tensor::RandomNormal(
      t::Shape{batch_size, c.input_len, c.num_nodes, c.num_features}, rng);
  batch.y = t::Tensor::RandomNormal(
      t::Shape{batch_size, c.output_len, c.num_nodes, c.num_features}, rng);
  for (int64_t i = 0; i < batch_size * c.input_len; ++i) {
    batch.tod_in.push_back(i % c.steps_per_day);
    batch.dow_in.push_back((i / c.steps_per_day) % 7);
  }
  for (int64_t i = 0; i < batch_size * c.output_len; ++i) {
    batch.tod_out.push_back((i + 3) % c.steps_per_day);
    batch.dow_out.push_back(((i + 3) / c.steps_per_day) % 7);
  }
  return batch;
}

struct ModeResult {
  double heap_allocs_per_train_step = 0.0;
  double heap_allocs_per_forward = 0.0;
  double pool_hit_rate = 0.0;
  double train_step_ms = 0.0;
  double forward_ms = 0.0;
  double recycled_mb_per_train_step = 0.0;
  int64_t pool_peak_resident_bytes = 0;
};

// Steady-state measurement of training steps and serving forwards with the
// pool in the given mode. A fresh model per mode keeps the two runs
// independent; warmup steps let the pool reach steady state (and the
// allocator/thread pool settle) before counters are read.
ModeResult RunMode(bool pool_enabled, int warmup_steps, int measure_steps) {
  StoragePool::Global().SetEnabledForTesting(pool_enabled);
  MemoryTracker& tracker = MemoryTracker::Global();
  SstbanConfig c = BenchConfig();
  SstbanModel model(c);
  sstban::data::Batch batch = MakeBatch(c, /*batch_size=*/4);
  sstban::optim::Adam adam(model.Parameters(), /*lr=*/1e-3f);

  auto train_step = [&] {
    ag::Variable loss = model.TrainingLoss(batch.x, batch.y, batch);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  };
  for (int i = 0; i < warmup_steps; ++i) train_step();

  ModeResult result;
  int64_t heap0 = tracker.heap_allocs();
  int64_t hits0 = tracker.pool_hits();
  int64_t misses0 = tracker.pool_misses();
  int64_t recycled0 = tracker.pool_recycled_bytes();
  double start = BenchNowSeconds();
  for (int i = 0; i < measure_steps; ++i) train_step();
  result.train_step_ms = (BenchNowSeconds() - start) * 1e3 / measure_steps;
  result.heap_allocs_per_train_step =
      static_cast<double>(tracker.heap_allocs() - heap0) / measure_steps;
  int64_t hits = tracker.pool_hits() - hits0;
  int64_t misses = tracker.pool_misses() - misses0;
  result.pool_hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  result.recycled_mb_per_train_step =
      static_cast<double>(tracker.pool_recycled_bytes() - recycled0) / 1e6 /
      measure_steps;

  // The serving forward: normalize, no-grad tape forward, denormalize.
  sstban::data::Normalizer normalizer =
      sstban::data::Normalizer::Fit(batch.x);
  auto forward = [&] {
    sstban::training::RunBatchedInference(&model, normalizer, batch);
  };
  for (int i = 0; i < warmup_steps; ++i) forward();
  heap0 = tracker.heap_allocs();
  start = BenchNowSeconds();
  for (int i = 0; i < measure_steps; ++i) forward();
  result.forward_ms = (BenchNowSeconds() - start) * 1e3 / measure_steps;
  result.heap_allocs_per_forward =
      static_cast<double>(tracker.heap_allocs() - heap0) / measure_steps;
  result.pool_peak_resident_bytes = tracker.pool_peak_resident_bytes();
  return result;
}

struct StepSnapshot {
  float loss;
  std::vector<std::pair<std::string, t::Tensor>> grads;
};

// One fresh-model training step; model init and masking RNG depend only on
// the config seed, so two runs can differ only through the allocator.
StepSnapshot FreshStep(bool pool_enabled) {
  StoragePool::Global().SetEnabledForTesting(pool_enabled);
  SstbanConfig c = BenchConfig();
  SstbanModel model(c);
  sstban::data::Batch batch = MakeBatch(c, /*batch_size=*/2);
  ag::Variable loss = model.TrainingLoss(batch.x, batch.y, batch);
  model.ZeroGrad();
  loss.Backward();
  StepSnapshot snap;
  snap.loss = loss.item();
  for (auto& [name, p] : model.NamedParameters()) {
    snap.grads.emplace_back(name, p.grad().Clone());
  }
  return snap;
}

bool BitwiseIdentical(const StepSnapshot& a, const StepSnapshot& b) {
  if (a.loss != b.loss || a.grads.size() != b.grads.size()) return false;
  for (size_t g = 0; g < a.grads.size(); ++g) {
    const t::Tensor& ta = a.grads[g].second;
    const t::Tensor& tb = b.grads[g].second;
    if (a.grads[g].first != b.grads[g].first || !(ta.shape() == tb.shape())) {
      return false;
    }
    for (int64_t i = 0; i < ta.size(); ++i) {
      if (ta.data()[i] != tb.data()[i]) return false;
    }
  }
  return true;
}

void AppendModeJson(std::string* out, const char* name, const ModeResult& r,
                    bool trailing_comma) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\"heap_allocs_per_train_step\": %.1f, "
      "\"heap_allocs_per_forward\": %.1f, \"pool_hit_rate\": %.4f, "
      "\"train_step_ms\": %.3f, \"forward_ms\": %.3f, "
      "\"recycled_mb_per_train_step\": %.2f, "
      "\"pool_peak_resident_bytes\": %lld}%s\n",
      name, r.heap_allocs_per_train_step, r.heap_allocs_per_forward,
      r.pool_hit_rate, r.train_step_ms, r.forward_ms,
      r.recycled_mb_per_train_step,
      static_cast<long long>(r.pool_peak_resident_bytes),
      trailing_comma ? "," : "");
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kWarmupSteps = 3;
  constexpr int kMeasureSteps = 10;

  // ABBA order with per-mode minimums: the first measured mode pays CPU and
  // allocator warm-up drift, which would otherwise masquerade as a pool
  // slowdown (or speedup). Allocation counts are deterministic, so those
  // come straight from the first run of each mode.
  ModeResult pool_on = RunMode(/*pool_enabled=*/true, kWarmupSteps, kMeasureSteps);
  ModeResult pool_off = RunMode(/*pool_enabled=*/false, kWarmupSteps, kMeasureSteps);
  ModeResult off_again = RunMode(/*pool_enabled=*/false, kWarmupSteps, kMeasureSteps);
  ModeResult on_again = RunMode(/*pool_enabled=*/true, kWarmupSteps, kMeasureSteps);
  pool_on.train_step_ms = std::min(pool_on.train_step_ms, on_again.train_step_ms);
  pool_on.forward_ms = std::min(pool_on.forward_ms, on_again.forward_ms);
  pool_off.train_step_ms = std::min(pool_off.train_step_ms, off_again.train_step_ms);
  pool_off.forward_ms = std::min(pool_off.forward_ms, off_again.forward_ms);

  StepSnapshot pooled = FreshStep(/*pool_enabled=*/true);
  StepSnapshot pooled_warm = FreshStep(/*pool_enabled=*/true);  // recycled bufs
  StepSnapshot plain = FreshStep(/*pool_enabled=*/false);
  StoragePool::Global().SetEnabledForTesting(true);
  bool identical =
      BitwiseIdentical(plain, pooled) && BitwiseIdentical(plain, pooled_warm);

  // A warm pool reaches zero heap allocations per step; clamp the
  // denominator so the ratio stays a finite, JSON-representable number.
  double alloc_reduction =
      pool_off.heap_allocs_per_train_step /
      std::max(pool_on.heap_allocs_per_train_step, 1.0);

  std::string json = "{\n";
  json += "  \"bench\": \"alloc_churn\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"measure_steps\": %d,\n  \"batch_size\": 4,\n",
                kMeasureSteps);
  json += buf;
  AppendModeJson(&json, "pool_on", pool_on, true);
  AppendModeJson(&json, "pool_off", pool_off, true);
  std::snprintf(buf, sizeof(buf),
                "  \"heap_alloc_reduction\": %.1f,\n"
                "  \"bitwise_identical_pool_on_vs_off\": %s\n}\n",
                alloc_reduction, identical ? "true" : "false");
  json += buf;

  std::fputs(json.c_str(), stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << json;
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: training step is not bitwise identical pool on/off\n");
    return 1;
  }
  if (alloc_reduction < 10.0) {
    std::fprintf(stderr,
                 "FAIL: pool saves only %.1fx heap allocations per training "
                 "step (need >= 10x)\n",
                 alloc_reduction);
    return 1;
  }
  if (pool_on.heap_allocs_per_forward != 0.0) {
    std::fprintf(stderr,
                 "FAIL: warm pooled serving forward made %.1f heap "
                 "allocations (need 0)\n",
                 pool_on.heap_allocs_per_forward);
    return 1;
  }
  return 0;
}
