#include <algorithm>
#include <cmath>

#include "bench.h"
#include "core/rng.h"
#include "sstban/bottleneck_attention.h"
#include "sstban/decoders.h"
#include "sstban/encoder.h"
#include "sstban/stba_block.h"
#include "sstban/ste.h"
#include "sstban/transform_attention.h"
#include "stats.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"

namespace perfbench {

namespace ag = ::sstban::autograd;
namespace model = ::sstban::sstban;
namespace t = ::sstban::tensor;

namespace {

// Each probe runs once untimed, then until it has both kMinReps calls and
// kMinSeconds of them (at most kMaxReps), and reports the median call.
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;
constexpr double kMinSeconds = 0.25;

struct Timing {
  double median_ms = 0.0;
  double cpu_per_wall = 0.0;
};

template <typename F>
Timing Time(Tracer* tracer, const char* name, int64_t parent, F&& call) {
  call();
  std::vector<double> ms;
  const ProcessUsage usage0 = ReadProcessUsage();
  const auto start = Clock::now();
  auto now = start;
  while (static_cast<int>(ms.size()) < kMaxReps &&
         (static_cast<int>(ms.size()) < kMinReps ||
          std::chrono::duration<double>(now - start).count() < kMinSeconds)) {
    const auto t0 = Clock::now();
    call();
    now = Clock::now();
    if (tracer != nullptr) tracer->Record(name, t0, now, parent, -1);
    ms.push_back(std::chrono::duration<double, std::milli>(now - t0).count());
  }
  Timing timing;
  timing.median_ms = Median(ms);
  const double wall = std::chrono::duration<double>(now - start).count();
  timing.cpu_per_wall = (ReadProcessUsage().cpu_s() - usage0.cpu_s()) / wall;
  return timing;
}

double Gflops(double flops, double ms) { return flops / (ms * 1e6); }
double Gbps(double bytes, double ms) { return bytes / (ms * 1e6); }

}  // namespace

void RunProbes(const World& world, int64_t batch_size, uint64_t seed,
               Tracer* tracer, Metrics* out) {
  ScopedSpan root(tracer, "probes", -1, -1);
  const int64_t parent = root.id();
  const model::SstbanConfig& c = world.config;
  const int64_t B = batch_size, P = c.input_len, Q = c.output_len;
  const int64_t N = c.num_nodes, C = c.num_features, d = c.hidden_dim;
  const int64_t h = c.num_heads, R = c.spatial_refs;
  sstban::core::Rng rng(seed, 21);

  // The serving forward at the workload's batch: RunBatchedInference.
  std::vector<int64_t> starts;
  for (int64_t b = 0; b < B; ++b) {
    starts.push_back(rng.NextBelow(static_cast<uint32_t>(world.num_windows())));
  }
  sstban::data::WindowDataset windows(world.dataset, P, Q);
  const sstban::data::Batch batch = windows.MakeBatch(starts);
  model::SstbanModel sstban_model(c);
  Timing inference = Time(tracer, "probe.inference", parent, [&] {
    sstban::training::RunBatchedInference(&sstban_model, world.normalizer,
                                          batch);
  });
  (*out)["training.inference_ms"] = inference.median_ms;
  (*out)["core.cpu_per_wall"] = inference.cpu_per_wall;

  // The SSTBAN modules alone, grad off, on random inputs of their shapes.
  ag::NoGradGuard no_grad;
  auto randn = [&](t::Shape shape) {
    return ag::Variable(t::Tensor::RandomNormal(std::move(shape), rng));
  };
  const ag::Variable x = randn(t::Shape{B, P, N, C});
  const ag::Variable e_in = randn(t::Shape{B, P, N, d});
  const ag::Variable e_out = randn(t::Shape{B, Q, N, d});
  const ag::Variable hidden = randn(t::Shape{B, P, N, d});
  const ag::Variable hidden_q = randn(t::Shape{B, Q, N, d});
  const ag::Variable z = randn(t::Shape{B * P, N, 2 * d});

  model::SpatialTemporalEmbedding ste(N, c.steps_per_day, d, rng);
  (*out)["sstban.ste_ms"] = Time(tracer, "probe.ste", parent, [&] {
    ste.Forward(batch.tod_in, batch.dow_in, B, P);
  }).median_ms;
  model::StEncoder encoder(c, rng);
  (*out)["sstban.encoder_ms"] = Time(tracer, "probe.encoder", parent, [&] {
    encoder.Forward(x, e_in);
  }).median_ms;
  model::TransformAttention transform(d, h, rng);
  (*out)["sstban.transform_attention_ms"] =
      Time(tracer, "probe.transform_attention", parent, [&] {
        transform.Forward(e_out, e_in, hidden);
      }).median_ms;
  model::StForecastingDecoder decoder(c, rng);
  (*out)["sstban.forecast_decoder_ms"] =
      Time(tracer, "probe.forecast_decoder", parent, [&] {
        decoder.Forward(hidden_q, e_out);
      }).median_ms;
  model::StbaBlock block(d, h, c.temporal_refs, c.spatial_refs,
                         c.use_bottleneck, rng, c.spatial_mixing);
  (*out)["sstban.stba_block_ms"] =
      Time(tracer, "probe.stba_block", parent, [&] {
        block.Forward(hidden, e_in);
      }).median_ms;
  // Spatial orientation: R reference points over the N nodes of each slice.
  model::BottleneckAttention bottleneck(2 * d, d, R, h, rng);
  (*out)["sstban.bottleneck_attention_ms"] =
      Time(tracer, "probe.bottleneck_attention", parent, [&] {
        bottleneck.Forward(z);
      }).median_ms;

  // Tensor kernels at the spatial bottleneck's shapes. FLOPs and bytes are
  // computed from the tensor sizes, not measured.
  const int64_t rows = B * P * N;  // one row per (window, slice, node)
  const t::Tensor a = t::Tensor::RandomNormal(t::Shape{rows, 2 * d}, rng);
  const t::Tensor w = t::Tensor::RandomNormal(t::Shape{2 * d, 2 * d}, rng);
  const double gemm_flops = 2.0 * rows * (2 * d) * (2 * d);
  (*out)["tensor.gemm_gflops"] = Gflops(
      gemm_flops,
      Time(tracer, "probe.gemm", parent, [&] { t::Matmul(a, w); }).median_ms);

  // MHA splits 2d into h heads for absorb (dk = 2d / h) and d into h heads
  // for broadcast (dk = d / h); one attention batch per (slice, head).
  const int64_t heads_batch = B * P * h;
  const int64_t dk_absorb = std::max<int64_t>(1, 2 * d / h);
  const int64_t dk_bcast = std::max<int64_t>(1, d / h);
  auto attention_gflops = [&](const char* name, int64_t lq, int64_t lk,
                              int64_t dk) {
    const t::Shape q_shape{heads_batch, lq, dk}, kv_shape{heads_batch, lk, dk};
    const t::Tensor q = t::Tensor::RandomNormal(q_shape, rng);
    const t::Tensor k = t::Tensor::RandomNormal(kv_shape, rng);
    const t::Tensor v = t::Tensor::RandomNormal(kv_shape, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
    // QK^T and PV: 2 * lq * lk * dk multiply-adds each.
    const double flops = 4.0 * heads_batch * lq * lk * dk;
    return Gflops(flops, Time(tracer, name, parent, [&] {
                           t::FusedAttention(q, k, v, nullptr, 1, scale);
                         }).median_ms);
  };
  (*out)["tensor.absorb_attention_gflops"] =
      attention_gflops("probe.absorb_attention", R, N, dk_absorb);
  (*out)["tensor.broadcast_attention_gflops"] =
      attention_gflops("probe.broadcast_attention", N, R, dk_bcast);

  const t::Tensor z4 = t::Tensor::RandomNormal(t::Shape{B, P, N, 2 * d}, rng);
  const double z_bytes = 4.0 * z4.size();
  (*out)["tensor.permute_gbps"] = Gbps(
      2.0 * z_bytes, Time(tracer, "probe.permute", parent, [&] {
                       t::Permute(z4, {0, 2, 1, 3});
                     }).median_ms);
  const t::Tensor bias = t::Tensor::RandomNormal(t::Shape{2 * d}, rng);
  (*out)["tensor.bcast_add_gbps"] = Gbps(
      2.0 * z_bytes + 4.0 * bias.size(),
      Time(tracer, "probe.bcast_add", parent, [&] { t::Add(a, bias); })
          .median_ms);
}

}  // namespace perfbench
