// Micro-benchmark for the paper's §V-D5 complexity claim: bottleneck
// attention is O(L * R) in the sequence length L (R fixed reference
// points), while full self-attention is O(L^2). Built on google-benchmark;
// the per-iteration time of BottleneckAttention should grow ~linearly with
// L while FullSelfAttention grows ~quadratically, and the same holds along
// the node axis. This is the hardware-neutral half of Table VII.

#include <benchmark/benchmark.h>

#include "autograd/ops.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "sstban/bottleneck_attention.h"

namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
using sstban::sstban::BottleneckAttention;
using sstban::sstban::FullSelfAttention;

constexpr int64_t kDim = 16;
constexpr int64_t kHeads = 4;
constexpr int64_t kRefs = 3;

// Attaches roofline-style counters: attention GFLOP/s (rate) and best-case
// bytes/FLOP of the score GEMMs, so the scaling curves can be read against
// the machine's compute/bandwidth balance. `madds` counts the two attention
// GEMMs (scores + context); projections are the same on both paths.
void SetRooflineCounters(benchmark::State& state, double madds,
                         double tensor_bytes) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * madds * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes/FLOP"] = tensor_bytes / (2.0 * madds);
}

void BM_BottleneckForward(benchmark::State& state) {
  int64_t len = state.range(0);
  sstban::core::Rng rng(1);
  BottleneckAttention attn(kDim, kDim, kRefs, kHeads, rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(x).value().data());
  }
  state.SetComplexityN(len);
  // Bottleneck: L x R scores both directions, per head (dk = kDim / kHeads).
  double madds = 2.0 * kHeads * len * kRefs * (kDim / kHeads) * 2.0;
  double bytes = sizeof(float) * (2.0 * len * kDim + 2.0 * kRefs * kDim);
  SetRooflineCounters(state, madds, bytes);
}
BENCHMARK(BM_BottleneckForward)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_FullAttentionForward(benchmark::State& state) {
  int64_t len = state.range(0);
  sstban::core::Rng rng(1);
  FullSelfAttention attn(kDim, kDim, kHeads, rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(x).value().data());
  }
  state.SetComplexityN(len);
  // Full self-attention: L x L scores + context, per head.
  double madds = kHeads * (double)len * len * (kDim / kHeads) * 2.0;
  double bytes = sizeof(float) * (3.0 * len * kDim);
  SetRooflineCounters(state, madds, bytes);
}
BENCHMARK(BM_FullAttentionForward)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_BottleneckTrainStep(benchmark::State& state) {
  int64_t len = state.range(0);
  sstban::core::Rng rng(2);
  BottleneckAttention attn(kDim, kDim, kRefs, kHeads, rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  for (auto _ : state) {
    ag::Variable loss = ag::MeanAll(ag::Square(attn.Forward(x)));
    attn.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetComplexityN(len);
}
BENCHMARK(BM_BottleneckTrainStep)->RangeMultiplier(2)->Range(32, 256)->Complexity();

void BM_FullAttentionTrainStep(benchmark::State& state) {
  int64_t len = state.range(0);
  sstban::core::Rng rng(2);
  FullSelfAttention attn(kDim, kDim, kHeads, rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  for (auto _ : state) {
    ag::Variable loss = ag::MeanAll(ag::Square(attn.Forward(x)));
    attn.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetComplexityN(len);
}
BENCHMARK(BM_FullAttentionTrainStep)->RangeMultiplier(2)->Range(32, 256)->Complexity();

// Peak live tensor memory of one forward pass with the tape recording,
// reported as a counter. The fused attention keeps no L x L tensor on either
// path, so both grow linearly in L; the paper's "w/o STBA runs out of
// memory" came from materialized attention.
void BM_BottleneckPeakMemory(benchmark::State& state) {
  int64_t len = state.range(0);
  sstban::core::Rng rng(3);
  BottleneckAttention attn(kDim, kDim, kRefs, kHeads, rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  int64_t peak = 0;
  for (auto _ : state) {
    sstban::core::MemoryTracker::Global().ResetPeak();
    ag::Variable y = attn.Forward(x);
    benchmark::DoNotOptimize(y.value().data());
    peak = sstban::core::MemoryTracker::Global().peak_bytes();
  }
  state.counters["peak_MB"] = static_cast<double>(peak) / 1e6;
}
BENCHMARK(BM_BottleneckPeakMemory)->Arg(128)->Arg(512)->Arg(2048);

void BM_FullAttentionPeakMemory(benchmark::State& state) {
  int64_t len = state.range(0);
  sstban::core::Rng rng(3);
  FullSelfAttention attn(kDim, kDim, kHeads, rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  int64_t peak = 0;
  for (auto _ : state) {
    sstban::core::MemoryTracker::Global().ResetPeak();
    ag::Variable y = attn.Forward(x);
    benchmark::DoNotOptimize(y.value().data());
    peak = sstban::core::MemoryTracker::Global().peak_bytes();
  }
  state.counters["peak_MB"] = static_cast<double>(peak) / 1e6;
}
BENCHMARK(BM_FullAttentionPeakMemory)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
