// Fused-attention kernel benchmark: the fused softmax(scale*QK^T+mask)V
// streaming pass vs the unfused Bmm/MulScalar/Softmax/Bmm chain at an
// attention shape, with GFLOP/s and the score-tensor bytes/FLOP the fusion
// eliminates. The fused kernel's end-to-end cost is measured by the serving
// forward that uses it (perfbench's pems_burst workload).
//
// Emits JSON on stdout (snapshot: bench/BENCH_fused_attention.json); pass a
// path as argv[1] to also write it. Exits nonzero when the two paths
// disagree: at this key count the fused kernel runs its exact mode, which
// must match the unfused chain bit for bit.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/timing.h"
#include "core/rng.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace t = ::sstban::tensor;
using sstban::bench::MeasureSeconds;
using sstban::bench::Timing;

int main(int argc, char** argv) {
  sstban::core::Rng rng(11);
  const int64_t batch = 96, lq = 96, lk = 96, dk = 8;
  t::Tensor q = t::Tensor::RandomNormal(t::Shape{batch, lq, dk}, rng);
  t::Tensor k = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor v = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  t::Tensor fused = t::Tensor::Empty(t::Shape{batch, lq, dk});
  t::Tensor unfused;

  Timing fused_t = MeasureSeconds([&] {
    t::FusedAttentionInto(q.data(), k.data(), v.data(), nullptr, 1,
                          fused.data(), batch, lq, lk, dk, scale);
  });
  Timing unfused_t = MeasureSeconds([&] {
    unfused = t::Bmm(t::Softmax(t::MulScalar(t::Bmm(q, k, false, true), scale)),
                     v, false, false);
  });
  const bool bitwise =
      std::memcmp(fused.data(), unfused.data(),
                  static_cast<size_t>(fused.size()) * sizeof(float)) == 0;
  // 2 GEMMs; softmax flops ignored (they are identical on both paths).
  const double flops = 2.0 * batch * lq * lk * dk * 2.0;
  // Score-tensor memory traffic the fusion removes: the unfused chain
  // writes+reads the [batch, lq, lk] scores across 4 passes.
  const double score_bytes = 4.0 * batch * lq * lk * sizeof(float);
  double speedup = unfused_t.min_s / fused_t.min_s;
  std::printf("kernel [%lldx%lldx%lld dk=%lld]: fused %.3f ms (%.2f GF/s), "
              "unfused %.3f ms, speedup %.2fx, score bytes/FLOP %.4f, "
              "bitwise %s\n",
              static_cast<long long>(batch), static_cast<long long>(lq),
              static_cast<long long>(lk), static_cast<long long>(dk),
              fused_t.min_s * 1e3, flops / fused_t.min_s * 1e-9,
              unfused_t.min_s * 1e3, speedup, score_bytes / flops,
              bitwise ? "true" : "false");
  char row[512];
  std::snprintf(row, sizeof(row),
                "  \"kernel\": {\"batch\": %lld, \"lq\": %lld, \"lk\": %lld, "
                "\"dk\": %lld, \"fused_ms_min\": %.3f, "
                "\"fused_ms_mean\": %.3f, \"unfused_ms_min\": %.3f, "
                "\"unfused_ms_mean\": %.3f, "
                "\"fused_gflops\": %.2f, \"speedup\": %.2f, "
                "\"score_bytes_per_flop\": %.4f},\n",
                static_cast<long long>(batch), static_cast<long long>(lq),
                static_cast<long long>(lk), static_cast<long long>(dk),
                fused_t.min_s * 1e3, fused_t.mean_s * 1e3,
                unfused_t.min_s * 1e3, unfused_t.mean_s * 1e3,
                flops / fused_t.min_s * 1e-9, speedup, score_bytes / flops);

  std::ostringstream json;
  json << "{\n  \"bench\": \"fused_attention\",\n" << row
       << "  \"bitwise_identical\": " << (bitwise ? "true" : "false")
       << "\n}\n";
  std::fputs(json.str().c_str(), stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << json.str();
  }
  if (!bitwise) {
    std::fprintf(stderr,
                 "FAIL: fused kernel disagrees with the unfused chain\n");
    return 1;
  }
  return 0;
}
