// Tests for the runtime-dispatched SIMD kernel layer (tensor/simd/kernels.h)
// and the tiled GEMM's edge-tile handling:
//   - odd M/N/K shapes (full-tile + remainder split in the micro-kernel)
//     against a naive triple-loop reference, on every available tier;
//   - the max reduction is exact, so the scalar and AVX2 tables agree bit
//     for bit (only GEMM/softmax may differ across tiers);
//   - an excluded key's softmax weight is exactly 0 and never subnormal, and
//     a NaN score makes its row NaN, on every tier;
//   - dispatch + the SSTBAN_SIMD kill-switch override machinery.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_features.h"
#include "core/rng.h"
#include "simd_tiers.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels.h"
#include "tensor/tensor.h"

namespace sstban {
namespace {

namespace t = ::sstban::tensor;
using core::SimdLevel;
using ::sstban::testing::AvailableLevels;
using ::sstban::testing::ScopedSimdLevel;

t::Tensor NaiveMatmul(const t::Tensor& a, const t::Tensor& b, bool ta,
                      bool tb) {
  int64_t m = ta ? a.dim(1) : a.dim(0);
  int64_t k = ta ? a.dim(0) : a.dim(1);
  int64_t n = tb ? b.dim(0) : b.dim(1);
  t::Tensor c = t::Tensor::Zeros(t::Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        float av = ta ? pa[p * m + i] : pa[i * k + p];
        float bv = tb ? pb[j * k + p] : pb[p * n + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

void ExpectClose(const t::Tensor& got, const t::Tensor& want,
                 const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    float g = got.data()[i], w = want.data()[i];
    // fp32 tiled accumulation vs double-accumulated reference: allow a few
    // ulps scaled by the magnitude of the dot products involved.
    float tol = 1e-4f + 2e-5f * std::fabs(w);
    ASSERT_NEAR(g, w, tol) << what << " element " << i;
  }
}

// -- Edge-tile regression: odd M/N/K vs the naive reference ------------------

TEST(SimdGemmTest, OddShapesMatchNaiveReferenceOnEveryTier) {
  // Shapes straddling the micro-tile sizes (scalar MR=4, AVX2 MR=6/NR=16)
  // and the KC=256/NC=256 cache blocks, so every full-tile + remainder
  // combination of the split loops executes.
  struct Case { int64_t m, k, n; };
  const std::vector<Case> cases = {
      {1, 1, 1},   {3, 5, 7},    {5, 3, 17},  {6, 8, 16},  {7, 9, 15},
      {13, 31, 33}, {63, 65, 31}, {65, 257, 19}, {100, 129, 47},
  };
  core::Rng rng(17);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_EQ(scoped.active(), level);
    for (const Case& c : cases) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          SCOPED_TRACE(std::string(core::SimdLevelName(level)) + " m=" +
                       std::to_string(c.m) + " k=" + std::to_string(c.k) +
                       " n=" + std::to_string(c.n) + (ta ? " ta" : "") +
                       (tb ? " tb" : ""));
          t::Tensor a = t::Tensor::RandomNormal(
              ta ? t::Shape{c.k, c.m} : t::Shape{c.m, c.k}, rng);
          t::Tensor b = t::Tensor::RandomNormal(
              tb ? t::Shape{c.n, c.k} : t::Shape{c.k, c.n}, rng);
          t::Tensor got = t::Bmm(a.Reshape(t::Shape{1, a.dim(0), a.dim(1)}),
                                 b.Reshape(t::Shape{1, b.dim(0), b.dim(1)}),
                                 ta, tb)
                              .Reshape(t::Shape{c.m, c.n});
          ExpectClose(got, NaiveMatmul(a, b, ta, tb), "bmm");
        }
      }
    }
  }
}

// -- Max reduction: exact, so identical across tiers ------------------------

TEST(SimdKernelsTest, ReduceMaxAgreesBitwiseAcrossTiers) {
  const t::simd::SimdKernels& scalar = t::simd::internal::ScalarKernels();
  const t::simd::SimdKernels* avx2 = t::simd::internal::Avx2Kernels();
  if (avx2 == nullptr || !core::DetectCpuFeatures().avx2) {
    GTEST_SKIP() << "AVX2 table not available on this machine";
  }
  core::Rng rng(5);
  // Lengths around the 8-lane vector width so remainders are exercised.
  for (int64_t n : {1, 7, 8, 9, 31, 64, 1000, 1027}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    t::Tensor a = t::Tensor::RandomNormal(t::Shape{n}, rng);
    EXPECT_EQ(scalar.reduce_max(a.data(), n), avx2->reduce_max(a.data(), n));
  }
}

TEST(SimdKernelsTest, SoftmaxRowMatchesReferenceWithinTolerance) {
  core::Rng rng(11);
  for (SimdLevel level : AvailableLevels()) {
    for (int64_t n : {1, 5, 8, 17, 200, 513}) {
      SCOPED_TRACE(std::string(core::SimdLevelName(level)) + " n=" +
                   std::to_string(n));
      const t::simd::SimdKernels& ks = t::simd::KernelsFor(level);
      t::Tensor a = t::Tensor::RandomUniform(t::Shape{n}, rng, -10.f, 10.f);
      t::Tensor out = t::Tensor::Empty(t::Shape{n});
      ks.softmax_row(a.data(), out.data(), n);
      // Reference in double precision.
      double mx = a.data()[0];
      for (int64_t i = 1; i < n; ++i) mx = std::max(mx, (double)a.data()[i]);
      double denom = 0.0;
      for (int64_t i = 0; i < n; ++i) denom += std::exp(a.data()[i] - mx);
      double total = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        double want = std::exp(a.data()[i] - mx) / denom;
        // The AVX2 exp is ~2 ulp; softmax normalization keeps the relative
        // error of the same order.
        ASSERT_NEAR(out.data()[i], want, 1e-6 + 1e-5 * want) << "i=" << i;
        total += out.data()[i];
      }
      EXPECT_NEAR(total, 1.0, 1e-5);
      // In-place operation must give the identical bytes.
      t::Tensor inplace = a.Clone();
      ks.softmax_row(inplace.data(), inplace.data(), n);
      EXPECT_EQ(std::memcmp(inplace.data(), out.data(),
                            static_cast<size_t>(n) * sizeof(float)),
                0);
    }
  }
}

TEST(SimdKernelsTest, ExpSumMatchesSoftmaxPieces) {
  core::Rng rng(13);
  for (SimdLevel level : AvailableLevels()) {
    const t::simd::SimdKernels& ks = t::simd::KernelsFor(level);
    for (int64_t n : {3, 8, 40}) {
      t::Tensor a = t::Tensor::RandomNormal(t::Shape{n}, rng);
      float m = ks.reduce_max(a.data(), n);
      t::Tensor e = t::Tensor::Empty(t::Shape{n});
      double sum = ks.exp_sum(a.data(), m, e.data(), n);
      double check = 0.0;
      for (int64_t i = 0; i < n; ++i) check += e.data()[i];
      EXPECT_NEAR(sum, check, 1e-6 * std::max(1.0, check));
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_NEAR(e.data()[i], std::exp(a.data()[i] - m),
                    1e-6 + 1e-5 * std::exp(a.data()[i] - m));
      }
    }
  }
}

// -- Excluded keys and NaN scores ---------------------------------------------

bool IsSubnormal(float x) { return std::fpclassify(x) == FP_SUBNORMAL; }

// A hard-masked key (score - 1e9, the attention's additive mask) weighs
// exactly 0 on every tier, and no weight is subnormal. Lengths cover the
// AVX2 tier's tail-only, whole-vector and vector-plus-tail rows.
TEST(SimdKernelsTest, SoftmaxRowGivesExcludedKeysExactlyZero) {
  core::Rng rng(19);
  for (SimdLevel level : AvailableLevels()) {
    const t::simd::SimdKernels& ks = t::simd::KernelsFor(level);
    for (int64_t n : {5, 8, 12, 17, 307}) {
      SCOPED_TRACE(std::string(core::SimdLevelName(level)) + " n=" +
                   std::to_string(n));
      t::Tensor a = t::Tensor::RandomNormal(t::Shape{n}, rng);
      for (int64_t i = 1; i < n; i += 3) a.data()[i] += -1e9f;
      t::Tensor out = t::Tensor::Empty(t::Shape{n});
      ks.softmax_row(a.data(), out.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_FALSE(IsSubnormal(out.data()[i])) << "i=" << i;
        if (i % 3 == 1) {
          EXPECT_EQ(out.data()[i], 0.0f) << "i=" << i;
        } else {
          EXPECT_GT(out.data()[i], 0.0f) << "i=" << i;
        }
      }
    }
  }
}

// Below its clamp (-87.34) the AVX2 exp is exactly +0 and adds nothing to
// the row's sum. std::exp is subnormal down to -103.97, so only the AVX2
// tier is held to that band.
TEST(SimdKernelsTest, Avx2ExpIsExactlyZeroBelowItsClamp) {
  const t::simd::SimdKernels* avx2 = t::simd::internal::Avx2Kernels();
  if (avx2 == nullptr || !core::DetectCpuFeatures().avx2 ||
      !core::DetectCpuFeatures().fma) {
    GTEST_SKIP() << "AVX2 table not available on this machine";
  }
  // One whole vector and a tail, each holding -88, -100 and -1e9.
  const std::vector<float> a = {0.0f,  -88.0f, -100.0f, -1e9f, -1.0f,
                                -88.0f, -100.0f, -1e9f, -2.0f, -88.0f,
                                -100.0f, -1e9f};
  const int64_t n = static_cast<int64_t>(a.size());
  std::vector<float> e(a.size(), 7.0f);
  const double sum = avx2->exp_sum(a.data(), 0.0f, e.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    SCOPED_TRACE("a=" + std::to_string(a[i]));
    if (a[i] < -87.34f) {
      EXPECT_EQ(e[i], 0.0f);
      EXPECT_FALSE(std::signbit(e[i]));
    } else {
      EXPECT_GT(e[i], 0.5f * std::exp(a[i]));
    }
  }
  EXPECT_EQ(sum, (static_cast<double>(e[0]) + e[4]) + e[8]);
}

// A NaN score makes the whole row NaN on every tier, wherever it sits (the
// row's first element, a vector lane, the tail), so a NaN activation reaches
// the non-finite checks downstream on AVX2 as it does on the scalar tier.
TEST(SimdKernelsTest, SoftmaxRowPropagatesNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::vector<float>> rows = {{0.5f, nan, -0.25f, 1.0f, 0.0f}};
  for (int64_t at : {0, 2, 9}) {
    std::vector<float> row(13);
    for (int64_t i = 0; i < 13; ++i) row[i] = 0.25f * static_cast<float>(i % 5);
    row[at] = nan;
    rows.push_back(row);
  }
  for (SimdLevel level : AvailableLevels()) {
    const t::simd::SimdKernels& ks = t::simd::KernelsFor(level);
    for (const std::vector<float>& row : rows) {
      const int64_t n = static_cast<int64_t>(row.size());
      SCOPED_TRACE(std::string(core::SimdLevelName(level)) + " n=" +
                   std::to_string(n));
      std::vector<float> out(row.size());
      ks.softmax_row(row.data(), out.data(), n);
      for (int64_t i = 0; i < n; ++i) EXPECT_TRUE(std::isnan(out[i])) << i;
      EXPECT_TRUE(std::isnan(ks.exp_sum(row.data(), 1.0f, out.data(), n)));
    }
  }
}

// -- Dispatch machinery -------------------------------------------------------

TEST(SimdDispatchTest, TablesCarryTheirNames) {
  EXPECT_STREQ(t::simd::KernelsFor(SimdLevel::kScalar).name, "scalar");
  EXPECT_EQ(t::simd::KernelsFor(SimdLevel::kScalar).gemm_mr, 4);
  if (t::simd::internal::Avx2Kernels() != nullptr) {
    EXPECT_STREQ(t::simd::internal::Avx2Kernels()->name, "avx2");
  }
}

TEST(SimdDispatchTest, ForcedScalarLevelRoutesTheActiveTable) {
  ScopedSimdLevel scoped(SimdLevel::kScalar);
  EXPECT_EQ(scoped.active(), SimdLevel::kScalar);
  EXPECT_STREQ(t::simd::Kernels().name, "scalar");
}

TEST(SimdDispatchTest, Avx2RequestDegradesGracefullyWithoutHardware) {
  // On AVX2 hardware the request sticks; elsewhere it must be ignored and
  // the active level stays scalar — never a crash or an invalid table.
  SimdLevel previous = core::ActiveSimdLevel();
  SimdLevel got = core::SetSimdLevelForTesting(SimdLevel::kAvx2);
  const core::CpuFeatures& f = core::DetectCpuFeatures();
  if (f.avx2 && f.fma && t::simd::internal::Avx2Kernels() != nullptr) {
    EXPECT_EQ(got, SimdLevel::kAvx2);
    EXPECT_STREQ(t::simd::Kernels().name, "avx2");
  } else {
    EXPECT_EQ(got, SimdLevel::kScalar);
    EXPECT_STREQ(t::simd::Kernels().name, "scalar");
  }
  core::SetSimdLevelForTesting(previous);
}

}  // namespace
}  // namespace sstban
