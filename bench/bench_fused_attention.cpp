// Fused-attention kernel benchmark: the fused softmax(scale*QK^T+mask)V pass
// vs the unfused Bmm/MulScalar/Softmax/Bmm chain, at a generic square shape
// and at the three attention shapes of the pems_burst serving forward (PEMS04
// widths d = 16, h = 8; B = 8 windows of P = 12 steps over N = 307 nodes; R =
// 3 reference points):
//   absorb    — spatial stage one: R queries over N keys, dk = 2d/h = 4;
//   broadcast — spatial stage two: N queries over R keys, dk = d/h = 2;
//   temporal  — temporal stage two: P queries over R keys, dk = 2.
// These run on the projections' own [batch, L, h*dk] layout; the unfused
// chain gets head-split copies, and its time includes the split and merge.
// The fused kernel's end-to-end cost is measured by the serving forward
// that uses it (perfbench's pems_burst).
//
// Emits JSON on stdout (snapshot: bench/BENCH_fused_attention.json); pass a
// path as argv[1] to also write it. Exits nonzero when the two paths
// disagree on any bit: the fused kernel must match the unfused chain of the
// active SIMD tier at every shape.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/timing.h"
#include "core/rng.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels.h"
#include "tensor/tensor.h"

namespace t = ::sstban::tensor;
using sstban::bench::MeasureSeconds;
using sstban::bench::Timing;

namespace {

struct Case {
  const char* name;
  int64_t batch, heads, lq, lk, dk;
};

// [batch, L, h*dk] -> [batch*h, L, dk] and back.
t::Tensor SplitHeads(const t::Tensor& x, int64_t heads) {
  int64_t batch = x.dim(0), len = x.dim(1), dk = x.dim(2) / heads;
  return t::Permute(x.Reshape(t::Shape{batch, len, heads, dk}), {0, 2, 1, 3})
      .Reshape(t::Shape{batch * heads, len, dk});
}
t::Tensor MergeHeads(const t::Tensor& x, int64_t heads) {
  int64_t batch = x.dim(0) / heads, len = x.dim(1), dk = x.dim(2);
  return t::Permute(x.Reshape(t::Shape{batch, heads, len, dk}), {0, 2, 1, 3})
      .Reshape(t::Shape{batch, len, heads * dk});
}

// Runs one case; appends its JSON object to `json` and returns whether the
// fused result matches the unfused chain bit for bit.
bool RunCase(const Case& c, sstban::core::Rng& rng, std::string* json) {
  const int64_t hd = c.heads * c.dk;
  t::Tensor q = t::Tensor::RandomNormal(t::Shape{c.batch, c.lq, hd}, rng);
  t::Tensor k = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
  t::Tensor v = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
  const float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
  t::AttentionDims dims = t::FusedAttentionDims(q, k, v, nullptr, c.heads);
  t::Tensor fused = t::Tensor::Empty(t::Shape{c.batch, c.lq, hd});
  t::Tensor unfused;

  Timing fused_t = MeasureSeconds([&] {
    t::FusedAttentionInto(q.data(), k.data(), v.data(), nullptr, fused.data(),
                          dims, scale);
  });
  Timing unfused_t = MeasureSeconds([&] {
    t::Tensor qh = SplitHeads(q, c.heads);
    t::Tensor kh = SplitHeads(k, c.heads);
    t::Tensor vh = SplitHeads(v, c.heads);
    t::Tensor scores = t::MulScalar(t::Bmm(qh, kh, false, true), scale);
    unfused = MergeHeads(t::Bmm(t::Softmax(scores), vh, false, false), c.heads);
  });
  const bool bitwise =
      std::memcmp(fused.data(), unfused.data(),
                  static_cast<size_t>(fused.size()) * sizeof(float)) == 0;
  // 2 GEMMs; softmax flops ignored (they are identical on both paths).
  const double flops = 4.0 * c.batch * c.heads * c.lq * c.lk * c.dk;
  const double speedup = unfused_t.min_s / fused_t.min_s;
  std::printf("%-9s [%lld x h%lld: %lld over %lld, dk=%lld]: fused %.3f ms "
              "(%.2f GF/s), unfused %.3f ms, speedup %.2fx, bitwise %s\n",
              c.name, static_cast<long long>(c.batch),
              static_cast<long long>(c.heads), static_cast<long long>(c.lq),
              static_cast<long long>(c.lk), static_cast<long long>(c.dk),
              fused_t.min_s * 1e3, flops / fused_t.min_s * 1e-9,
              unfused_t.min_s * 1e3, speedup, bitwise ? "true" : "false");
  char row[512];
  std::snprintf(row, sizeof(row),
                "  \"%s\": {\"batch\": %lld, \"heads\": %lld, \"lq\": %lld, "
                "\"lk\": %lld, \"dk\": %lld, \"fused_ms_min\": %.3f, "
                "\"fused_ms_mean\": %.3f, \"unfused_ms_min\": %.3f, "
                "\"unfused_ms_mean\": %.3f, \"fused_gflops\": %.2f, "
                "\"speedup\": %.2f, \"bitwise\": %s},\n",
                c.name, static_cast<long long>(c.batch),
                static_cast<long long>(c.heads), static_cast<long long>(c.lq),
                static_cast<long long>(c.lk), static_cast<long long>(c.dk),
                fused_t.min_s * 1e3, fused_t.mean_s * 1e3,
                unfused_t.min_s * 1e3, unfused_t.mean_s * 1e3,
                flops / fused_t.min_s * 1e-9, speedup,
                bitwise ? "true" : "false");
  *json += row;
  return bitwise;
}

}  // namespace

int main(int argc, char** argv) {
  sstban::core::Rng rng(11);
  const std::vector<Case> cases = {
      {"kernel", 96, 1, 96, 96, 8},
      {"absorb", 8 * 12, 8, 3, 307, 4},
      {"broadcast", 8 * 12, 8, 307, 3, 2},
      {"temporal", 8 * 307, 8, 12, 3, 2},
  };
  std::string rows;
  bool bitwise = true;
  for (const Case& c : cases) bitwise = RunCase(c, rng, &rows) && bitwise;

  std::ostringstream json;
  json << "{\n  \"bench\": \"fused_attention\",\n  \"tier\": \""
       << t::simd::Kernels().name << "\",\n"
       << rows << "  \"bitwise_identical\": " << (bitwise ? "true" : "false")
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
