// Online-adaptation loop characteristics, pinned as a committed snapshot
// (bench/BENCH_online_adaptation.json):
//
//   - steady-state ingest: ns and slices/sec for a clean [N, C] append, with
//     a HARD zero-allocation gate — the live-feed hot path must cost a
//     sanitizer scan plus two memcpys, never a heap round-trip;
//   - windows-to-detect: how many post-shift evaluation windows the CUSUM
//     detector needs to confirm a mild and a strong error-level shift (the
//     hysteresis/recall trade the shipped thresholds buy);
//   - steps-to-recover: label-free fine-tuning steps until the masked-
//     reconstruction loss halves on a fresh model (the adaptation round's
//     convergence speed at the bench scale).
//
// Exits nonzero when the ingest path heap-allocates or a detection scenario
// fails to confirm. Latencies are reported, not gated — CI boxes are noisy;
// allocations and detection counts are deterministic. Emits one JSON object
// on stdout; pass a path as argv[1] to also write it there.

#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common/alloc_counter.h"
#include "common/timing.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "streaming/drift_detector.h"
#include "streaming/online_adapter.h"
#include "streaming/stream_ingestor.h"
#include "tensor/tensor.h"

namespace {

namespace bench = ::sstban::bench;
namespace core = ::sstban::core;
namespace data = ::sstban::data;
namespace streaming = ::sstban::streaming;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

// Post-shift evaluation windows until the detector confirms drift against a
// baseline it learned at error level `base`; -1 if `limit` windows pass
// without confirmation.
int64_t WindowsToDetect(double base, double shifted, uint64_t seed,
                        int64_t limit) {
  streaming::DriftDetector detector;
  core::Rng rng(seed);
  // Warmup plus a stable stretch, so the baseline is the frozen one the
  // controller would actually be comparing against.
  for (int i = 0; i < 48; ++i) {
    detector.Observe(base + 0.05 * base * rng.NextGaussian());
  }
  if (detector.state() != streaming::DriftState::kStable) return -1;
  for (int64_t i = 1; i <= limit; ++i) {
    auto state = detector.Observe(shifted + 0.05 * base * rng.NextGaussian());
    if (state == streaming::DriftState::kDrift) return i;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  // 1. Steady-state ingest: clean slices at serving scale (32 sensors, 3
  //    features), ring warm, sanitizer scanning every value.
  streaming::StreamIngestorOptions ingest_options;
  ingest_options.num_nodes = 32;
  ingest_options.num_features = 3;
  ingest_options.input_len = 12;
  ingest_options.output_len = 12;
  ingest_options.steps_per_day = 96;
  ingest_options.sanitizer.degradable_channels = {0};
  streaming::StreamIngestor ingestor(ingest_options);
  t::Tensor slice = t::Tensor::Ones(t::Shape{32, 3});
  int64_t step = 0;
  for (; step < 512; ++step) {  // fill and wrap the ring before measuring
    if (!ingestor.Append(slice, step).ok()) {
      std::fprintf(stderr, "FAIL: warmup append rejected\n");
      return 1;
    }
  }
  constexpr long long kIngestIters = 200'000;
  bench::StartCountingAllocs();
  double start = bench::BenchNowSeconds();
  for (long long i = 0; i < kIngestIters; ++i) {
    if (!ingestor.Append(slice, step++).ok()) {
      bench::StopCountingAllocs();
      std::fprintf(stderr, "FAIL: steady-state append rejected\n");
      return 1;
    }
  }
  double ingest_elapsed = bench::BenchNowSeconds() - start;
  const long long ingest_allocs = bench::StopCountingAllocs();
  const double ingest_ns = ingest_elapsed * 1e9 / kIngestIters;
  const double ingest_rate = kIngestIters / ingest_elapsed;

  // 2. Windows-to-detect at the shipped detector constants.
  const int64_t detect_mild = WindowsToDetect(1.0, 1.3, 11, 512);
  const int64_t detect_strong = WindowsToDetect(1.0, 2.0, 11, 512);

  // 3. Steps-to-recover: fresh tiny model, one adaptation round on a seeded
  //    synthetic world; first step at which the SSL loss halved.
  data::SyntheticWorldConfig world;
  world.num_nodes = 8;
  world.num_corridors = 2;
  world.steps_per_day = 24;
  world.num_days = 4;
  world.seed = 71;
  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(world));
  data::WindowDataset windows(dataset, 12, 12);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 32; ++i) indices.push_back(i);

  model_ns::SstbanConfig model_config;
  model_config.num_nodes = 8;
  model_config.input_len = 12;
  model_config.output_len = 12;
  model_config.num_features = 1;
  model_config.steps_per_day = 24;
  model_config.hidden_dim = 8;
  model_config.num_heads = 2;
  model_config.encoder_blocks = 1;
  model_config.decoder_blocks = 1;
  model_config.patch_len = 3;
  model_config.seed = 71;
  model_ns::SstbanModel model(model_config);

  streaming::OnlineAdapterOptions adapt_options;
  adapt_options.num_steps = 24;
  streaming::OnlineAdapter adapter(adapt_options);
  start = bench::BenchNowSeconds();
  auto report = adapter.Adapt(&model, windows, indices, normalizer);
  const double adapt_elapsed = bench::BenchNowSeconds() - start;
  if (!report.ok()) {
    std::fprintf(stderr, "FAIL: adaptation round: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const std::vector<double>& losses = report.value().step_loss;
  int64_t steps_to_halve = -1;
  for (size_t i = 0; i < losses.size(); ++i) {
    if (losses[i] <= 0.5 * losses.front()) {
      steps_to_halve = static_cast<int64_t>(i) + 1;
      break;
    }
  }
  const double adapt_ms_per_step =
      adapt_elapsed * 1e3 / static_cast<double>(losses.size());

  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"online_adaptation\",\n"
      "  \"ingest_clean_32x3\": {\"ns_per_slice\": %.2f, "
      "\"slices_per_sec\": %.0f, \"allocs\": %lld},\n"
      "  \"windows_to_detect\": {\"shift_1.3x\": %lld, \"shift_2.0x\": "
      "%lld},\n"
      "  \"adapt_round\": {\"steps\": %zu, \"first_loss\": %.4f, "
      "\"last_loss\": %.4f, \"steps_to_halve_loss\": %lld, "
      "\"ms_per_step\": %.2f}\n"
      "}\n",
      ingest_ns, ingest_rate, ingest_allocs,
      static_cast<long long>(detect_mild),
      static_cast<long long>(detect_strong), losses.size(), losses.front(),
      losses.back(), static_cast<long long>(steps_to_halve),
      adapt_ms_per_step);
  std::fputs(buf, stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << buf;
  }

  bool failed = false;
  if (ingest_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state ingest heap-allocated %lld times "
                 "(want 0)\n",
                 ingest_allocs);
    failed = true;
  }
  if (detect_mild < 0 || detect_strong < 0) {
    std::fprintf(stderr, "FAIL: a sustained shift went undetected\n");
    failed = true;
  }
  if (detect_strong > detect_mild) {
    std::fprintf(stderr,
                 "FAIL: the stronger shift took longer to detect "
                 "(%lld > %lld windows)\n",
                 static_cast<long long>(detect_strong),
                 static_cast<long long>(detect_mild));
    failed = true;
  }
  return failed ? 1 : 0;
}
