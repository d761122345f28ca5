// Kernel microbenchmark for the SIMD dispatch layer (DESIGN.md §14):
//
//   1. Scalar vs AVX2 micro-kernel, single thread, on 256/512/1024 square
//      GEMMs — the AVX2 tier must reach >= 2x the scalar tier's GFLOP/s.
//      The two tiers are timed in alternating repetitions and the gate
//      compares min-of-K against min-of-K, so a burst of host steal lands
//      on both sides. Roofline-style bytes/FLOP is reported per shape so
//      the numbers can be read against the machine's compute/bandwidth
//      balance.
//   2. The model's projection GEMMs at perfbench's geometry (B = 4, P = 12,
//      N = 307, d = 16, so R = B*P*N rows of width 2d), single thread on
//      the process's tier: the forward products, the dX product (B
//      transposed) and the dW product (A transposed). Each product is also
//      computed from all four (ta, tb) storage layouts of its operands,
//      which must agree bit for bit.
//
// All timings are min-of-K repetitions alongside the mean (bench/common/
// timing.h) so snapshot numbers gate on the noise floor. Emits JSON on
// stdout (snapshot: bench/BENCH_simd_kernels.json); pass a path as argv[1]
// to also write it there. Exits nonzero if the layouts disagree or AVX2
// hardware is present but misses the 2x gate. Every kernel runs on the
// calling thread, so every timing here is single-threaded.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/timing.h"
#include "core/cpu_features.h"
#include "core/rng.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace {

namespace t = ::sstban::tensor;
using sstban::bench::MeasureSeconds;
using sstban::bench::Timing;
using sstban::core::SimdLevel;

bool BitwiseEqual(const t::Tensor& a, const t::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  sstban::core::Rng rng(7);
  std::ostringstream json;
  json << "{\n  \"bench\": \"simd_kernels\",\n";

  const sstban::core::CpuFeatures& features =
      sstban::core::DetectCpuFeatures();
  const bool have_avx2 = features.avx2 && features.fma;
  json << "  \"cpu\": {\"avx2\": " << (features.avx2 ? "true" : "false")
       << ", \"fma\": " << (features.fma ? "true" : "false") << "},\n";

  // --- 1. Scalar vs AVX2 tier, single thread, square shapes. ---
  const SimdLevel process_level = sstban::core::ActiveSimdLevel();
  std::printf("single-thread GEMM, scalar vs AVX2 tier (alternating reps)\n");
  std::printf("%-8s %12s %12s %10s %10s %8s %12s\n", "shape", "scalar GF/s",
              "avx2 GF/s", "scalar ms", "avx2 ms", "speedup", "bytes/FLOP");
  json << "  \"square_gemm_single_thread\": [\n";
  bool gate_failed = false;
  for (int64_t dim : {256, 512, 1024}) {
    t::Tensor a = t::Tensor::RandomNormal(t::Shape{dim, dim}, rng);
    t::Tensor b = t::Tensor::RandomNormal(t::Shape{dim, dim}, rng);
    const double flops = 2.0 * dim * dim * dim;
    // Roofline arithmetic intensity of the untiled problem: three matrices
    // touched once each vs 2*M*K*N flops. The tiled kernel re-reads panels,
    // so this is the *best case* intensity the cache blocking chases.
    const double bytes_per_flop = 3.0 * dim * dim * sizeof(float) / flops;

    sstban::core::SetSimdLevelForTesting(SimdLevel::kScalar);
    t::Tensor scalar_out = t::Matmul(a, b);
    SimdLevel granted = sstban::core::SetSimdLevelForTesting(SimdLevel::kAvx2);
    t::Tensor simd_out = t::Matmul(a, b);
    auto [scalar_t, simd_t] = sstban::bench::MeasureAlternating(
        [&] {
          sstban::core::SetSimdLevelForTesting(SimdLevel::kScalar);
          t::Matmul(a, b);
        },
        [&] {
          sstban::core::SetSimdLevelForTesting(SimdLevel::kAvx2);
          t::Matmul(a, b);
        });
    sstban::core::SetSimdLevelForTesting(process_level);

    const bool tiers_differ = granted == SimdLevel::kAvx2;
    double scalar_gfs = flops / scalar_t.min_s * 1e-9;
    double simd_gfs = flops / simd_t.min_s * 1e-9;
    double speedup = scalar_t.min_s / simd_t.min_s;
    std::printf("%-8lld %12.2f %12.2f %10.3f %10.3f %7.2fx %12.5f\n",
                static_cast<long long>(dim), scalar_gfs, simd_gfs,
                scalar_t.min_s * 1e3, simd_t.min_s * 1e3, speedup,
                bytes_per_flop);
    if (tiers_differ && speedup < 2.0) gate_failed = true;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"dim\": %lld, \"scalar_gflops\": %.2f, "
                  "\"avx2_gflops\": %.2f, \"scalar_ms_min\": %.3f, "
                  "\"scalar_ms_mean\": %.3f, \"avx2_ms_min\": %.3f, "
                  "\"avx2_ms_mean\": %.3f, \"speedup\": %.2f, "
                  "\"bytes_per_flop\": %.5f}%s\n",
                  static_cast<long long>(dim), scalar_gfs, simd_gfs,
                  scalar_t.min_s * 1e3, scalar_t.mean_s * 1e3,
                  simd_t.min_s * 1e3, simd_t.mean_s * 1e3, speedup,
                  bytes_per_flop, dim == 1024 ? "" : ",");
    json << row;
    // Tiers round differently (FMA contraction) but must agree numerically.
    if (!t::AllClose(scalar_out, simd_out, 1e-3f, 1e-3f)) {
      std::fprintf(stderr, "FATAL: scalar and AVX2 GEMM disagree at %lld\n",
                   static_cast<long long>(dim));
      return 1;
    }
  }
  json << "  ],\n";

  // --- 2. The model's projection GEMMs, single thread, process tier. ---
  // R rows of width 2d through a [2d, 2d] or [2d, d] weight, and the two
  // backward products of each: dX = dY W^T (tb) and dW = X^T dY (ta).
  const int64_t kR = 4 * 12 * 307, kD = 16;
  struct ProjectionCase {
    const char* key;
    int64_t m, k, n;
    bool ta, tb;  // the layout the model's autograd uses
  };
  const ProjectionCase projections[] = {
      {"fwd_R32_32x32", kR, 2 * kD, 2 * kD, false, false},
      {"fwd_R32_32x16", kR, 2 * kD, kD, false, false},
      {"dx_R32_32x32t", kR, 2 * kD, 2 * kD, false, true},
      {"dx_R16_32x16t", kR, kD, 2 * kD, false, true},
      {"dw_R32t_R32", 2 * kD, kR, 2 * kD, true, false},
      {"dw_R32t_R16", 2 * kD, kR, kD, true, false},
  };
  std::printf("\nprojection GEMMs at perfbench geometry (R = %lld), single "
              "thread, %s tier\n",
              static_cast<long long>(kR),
              sstban::core::SimdLevelName(process_level));
  std::printf("%-16s %-22s %10s %10s  %s\n", "case", "logical m x k x n",
              "ms", "GF/s", "layouts");
  json << "  \"projection_gemm_single_thread\": {\"tier\": \""
       << sstban::core::SimdLevelName(process_level) << "\", \"rows\": "
       << kR << ", \"cases\": [\n";
  bool layouts_equal = true;
  for (size_t pi = 0; pi < std::size(projections); ++pi) {
    const ProjectionCase& pc = projections[pi];
    // Logical operands and their transposed storage; the product must not
    // depend on which of the four layouts it is computed from.
    t::Tensor a = t::Tensor::RandomNormal(t::Shape{pc.m, pc.k}, rng);
    t::Tensor b = t::Tensor::RandomNormal(t::Shape{pc.k, pc.n}, rng);
    const t::Tensor stored_a[2] = {
        a.Reshape(t::Shape{1, pc.m, pc.k}),
        t::Transpose(a).Reshape(t::Shape{1, pc.k, pc.m})};
    const t::Tensor stored_b[2] = {
        b.Reshape(t::Shape{1, pc.k, pc.n}),
        t::Transpose(b).Reshape(t::Shape{1, pc.n, pc.k})};
    const t::Tensor& model_a = stored_a[pc.ta];
    const t::Tensor& model_b = stored_b[pc.tb];
    t::Tensor want = t::Bmm(model_a, model_b, pc.ta, pc.tb);
    bool equal = true;
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        equal = equal &&
                BitwiseEqual(t::Bmm(stored_a[ta], stored_b[tb], ta, tb), want);
      }
    }
    layouts_equal = layouts_equal && equal;
    Timing timing =
        MeasureSeconds([&] { t::Bmm(model_a, model_b, pc.ta, pc.tb); });
    const double gflops = 2.0 * pc.m * pc.k * pc.n / timing.min_s * 1e-9;
    char shape[64];
    std::snprintf(shape, sizeof(shape), "%lld x %lld x %lld%s%s",
                  static_cast<long long>(pc.m), static_cast<long long>(pc.k),
                  static_cast<long long>(pc.n), pc.ta ? " ta" : "",
                  pc.tb ? " tb" : "");
    std::printf("%-16s %-22s %10.3f %10.2f  %s\n", pc.key, shape,
                timing.min_s * 1e3, gflops, equal ? "equal" : "DIFFER");
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"case\": \"%s\", \"m\": %lld, \"k\": %lld, "
                  "\"n\": %lld, \"ta\": %s, \"tb\": %s, \"ms_min\": %.3f, "
                  "\"ms_mean\": %.3f, \"gflops\": %.2f, "
                  "\"layouts_bitwise\": %s}%s\n",
                  pc.key, static_cast<long long>(pc.m),
                  static_cast<long long>(pc.k), static_cast<long long>(pc.n),
                  pc.ta ? "true" : "false", pc.tb ? "true" : "false",
                  timing.min_s * 1e3, timing.mean_s * 1e3, gflops,
                  equal ? "true" : "false",
                  pi + 1 == std::size(projections) ? "" : ",");
    json << row;
  }
  json << "  ]},\n  \"avx2_2x_gate\": "
       << (have_avx2 ? (gate_failed ? "\"FAIL\"" : "\"PASS\"")
                     : "\"SKIPPED (no AVX2)\"")
       << "\n}\n";

  std::fputs(json.str().c_str(), stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << json.str();
  }
  if (!layouts_equal) {
    std::fprintf(stderr,
                 "FATAL: a projection GEMM differs between operand layouts\n");
    return 1;
  }
  if (have_avx2 && gate_failed) {
    std::fprintf(stderr,
                 "FATAL: AVX2 tier under 2x scalar on a square shape\n");
    return 1;
  }
  return 0;
}
