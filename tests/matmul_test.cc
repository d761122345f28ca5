#include <algorithm>
#include <cstring>
#include <iterator>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "simd_tiers.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sstban::tensor {
namespace {

// Reference O(n^3) implementation for validation.
Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c = Tensor::Zeros(Shape{m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t p = 0; p < k; ++p) acc += a.at({i, p}) * b.at({p, j});
      c.at({i, j}) = static_cast<float>(acc);
    }
  return c;
}

// Exact float equality, element by element (bitwise for all non-NaN data).
void ExpectIdentical(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  std::vector<float> va = a.ToVector(), vb = b.ToVector();
  for (size_t i = 0; i < va.size(); ++i) {
    ASSERT_EQ(va[i], vb[i]) << what << " element " << i;
  }
}

TEST(MatmulTest, SmallKnownResult) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = Matmul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(MatmulTest, IdentityIsNoop) {
  core::Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape{5, 5}, rng);
  Tensor eye = Tensor::Zeros(Shape{5, 5});
  for (int64_t i = 0; i < 5; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_TRUE(AllClose(Matmul(a, eye), a, 1e-5f, 1e-5f));
}

TEST(MatmulTest, MatchesNaiveOnRandom) {
  core::Rng rng(2);
  for (auto [m, k, n] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {3, 7, 5}, {17, 9, 13}, {70, 20, 30}}) {
    Tensor a = Tensor::RandomNormal(Shape{m, k}, rng);
    Tensor b = Tensor::RandomNormal(Shape{k, n}, rng);
    EXPECT_TRUE(AllClose(Matmul(a, b), NaiveMatmul(a, b), 1e-3f, 1e-3f))
        << m << "x" << k << "x" << n;
  }
}

class BmmTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(BmmTransposeTest, MatchesNaivePerBatch) {
  auto [ta, tb, inner] = GetParam();
  core::Rng rng(3 + inner);
  const int64_t batch = 3, m = 5, n = 4;
  int64_t k = inner;
  Shape a_shape = ta ? Shape{batch, k, m} : Shape{batch, m, k};
  Shape b_shape = tb ? Shape{batch, n, k} : Shape{batch, k, n};
  Tensor a = Tensor::RandomNormal(a_shape, rng);
  Tensor b = Tensor::RandomNormal(b_shape, rng);
  Tensor c = Bmm(a, b, ta, tb);
  ASSERT_EQ(c.shape(), Shape({batch, m, n}));
  for (int64_t bi = 0; bi < batch; ++bi) {
    Tensor a2 = Slice(a, 0, bi, 1).Reshape(Shape{a_shape.dim(1), a_shape.dim(2)});
    Tensor b2 = Slice(b, 0, bi, 1).Reshape(Shape{b_shape.dim(1), b_shape.dim(2)});
    if (ta) a2 = Transpose(a2);
    if (tb) b2 = Transpose(b2);
    Tensor expected = NaiveMatmul(a2, b2);
    Tensor got = Slice(c, 0, bi, 1).Reshape(Shape{m, n});
    EXPECT_TRUE(AllClose(got, expected, 1e-3f, 1e-3f))
        << "batch " << bi << " ta=" << ta << " tb=" << tb << " k=" << k;
  }
}

// inner dims 1..8 cover the specialized fixed-size kernels; 11 covers the
// generic fallback.
INSTANTIATE_TEST_SUITE_P(
    AllTransposeCombosAndKernelSizes, BmmTransposeTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2, 3, 4, 6, 8, 11)));

TEST(MatmulTest, TiledPathMatchesNaiveOnLargeOddShapes) {
  core::Rng rng(12);
  for (auto [m, k, n] : std::vector<std::tuple<int, int, int>>{
           {67, 31, 29}, {131, 65, 19}, {257, 17, 67}, {73, 259, 33}}) {
    Tensor a = Tensor::RandomNormal(Shape{m, k}, rng);
    Tensor b = Tensor::RandomNormal(Shape{k, n}, rng);
    EXPECT_TRUE(AllClose(Matmul(a, b), NaiveMatmul(a, b), 1e-2f, 1e-3f))
        << m << "x" << k << "x" << n;
  }
}

class BmmEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BmmEquivalenceTest, LargeShapesMatchNaivePerBatch) {
  auto [ta, tb] = GetParam();
  core::Rng rng(17 + 2 * ta + tb);
  const int64_t batch = 2, m = 97, k = 33, n = 41;
  Shape a_shape = ta ? Shape{batch, k, m} : Shape{batch, m, k};
  Shape b_shape = tb ? Shape{batch, n, k} : Shape{batch, k, n};
  Tensor a = Tensor::RandomNormal(a_shape, rng);
  Tensor b = Tensor::RandomNormal(b_shape, rng);
  Tensor c = Bmm(a, b, ta, tb);
  for (int64_t bi = 0; bi < batch; ++bi) {
    Tensor a2 = Slice(a, 0, bi, 1).Reshape(Shape{a_shape.dim(1), a_shape.dim(2)});
    Tensor b2 = Slice(b, 0, bi, 1).Reshape(Shape{b_shape.dim(1), b_shape.dim(2)});
    if (ta) a2 = Transpose(a2);
    if (tb) b2 = Transpose(b2);
    EXPECT_TRUE(AllClose(Slice(c, 0, bi, 1).Reshape(Shape{m, n}),
                         NaiveMatmul(a2, b2), 1e-2f, 1e-3f))
        << "batch " << bi << " ta=" << ta << " tb=" << tb;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, BmmEquivalenceTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// -- Storage layouts on the tiled path -------------------------------------
//
// The tiled micro-kernels read A and B where they lie, so the four (ta, tb)
// storage layouts of one logical product must feed every C element the same
// products in the same order, and a row range computed alone must equal
// those rows of the whole product. The shapes take the tiled path (k, n > 8)
// and leave row tails of both tiers' tile heights (4, 6), 16- and 8-wide
// column tails, several k panels and several column panels; the last two are
// the model's projections at perfbench's geometry (R = B * P * N =
// 4 * 12 * 307 rows of width 2d = 32).

struct GemmShape {
  int64_t m, k, n;
};

constexpr GemmShape kTiledLayoutShapes[] = {
    {131, 45, 45},
    {77, 517, 269},
    {4 * 12 * 307, 32, 32},
    {4 * 12 * 307, 32, 16},
};

// Below the tiled cutoff: a row-major A runs the small-shape kernels and a
// transposed one the micro-kernel, so their layouts need not agree bitwise,
// but a row range must still equal those rows of the whole product.
constexpr GemmShape kSmallShapes[] = {
    {5, 7, 11},
    {37, 9, 13},
};

std::string ShapeName(const GemmShape& s, bool ta, bool tb) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n) + (ta ? " ta" : "") + (tb ? " tb" : "");
}

// One logical product's operands in both storages: a[0] is A [1, m, k] and
// a[1] its transpose [1, k, m]; b[0] is B [1, k, n] and b[1] [1, n, k].
struct StoredOperands {
  Tensor a[2];
  Tensor b[2];
};

StoredOperands MakeStoredOperands(const GemmShape& s, core::Rng& rng) {
  Tensor a = Tensor::RandomNormal(Shape{s.m, s.k}, rng);
  Tensor b = Tensor::RandomNormal(Shape{s.k, s.n}, rng);
  return {{a.Reshape(Shape{1, s.m, s.k}),
           Transpose(a).Reshape(Shape{1, s.k, s.m})},
          {b.Reshape(Shape{1, s.k, s.n}),
           Transpose(b).Reshape(Shape{1, s.n, s.k})}};
}

TEST(MatmulLayoutTest, AllFourLayoutsGiveBitwiseEqualProductsOnEveryTier) {
  core::Rng rng(31);
  for (core::SimdLevel level : sstban::testing::AvailableLevels()) {
    sstban::testing::ScopedSimdLevel scoped(level);
    for (const GemmShape& s : kTiledLayoutShapes) {
      StoredOperands ops = MakeStoredOperands(s, rng);
      Tensor want = Bmm(ops.a[0], ops.b[0]);
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          ExpectIdentical(Bmm(ops.a[ta], ops.b[tb], ta, tb), want,
                          std::string(core::SimdLevelName(level)) + " " +
                              ShapeName(s, ta, tb));
        }
      }
    }
  }
}

TEST(MatmulLayoutTest, RowRangesEqualThoseRowsOfTheWholeProductOnEveryTier) {
  core::Rng rng(37);
  std::vector<GemmShape> shapes(std::begin(kTiledLayoutShapes),
                                std::end(kTiledLayoutShapes));
  shapes.insert(shapes.end(), std::begin(kSmallShapes), std::end(kSmallShapes));
  for (core::SimdLevel level : sstban::testing::AvailableLevels()) {
    sstban::testing::ScopedSimdLevel scoped(level);
    for (const GemmShape& s : shapes) {
      StoredOperands ops = MakeStoredOperands(s, rng);
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          const Tensor& a = ops.a[ta];
          const Tensor& b = ops.b[tb];
          Tensor whole = Bmm(a, b, ta, tb);
          // Ranges from row 0, inside, across and at the end of the rows,
          // clamped to each shape's M; a transposed A is split at all of
          // them, as a row-major one is.
          for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
                   {0, s.m}, {0, 5}, {0, 67}, {1, 8}, {5, 70},
                   {s.m / 3, s.m / 3 + 40}, {s.m - 7, s.m}}) {
            const int64_t i0 = std::clamp<int64_t>(lo, 0, s.m - 1);
            const int64_t i1 = std::clamp<int64_t>(hi, i0 + 1, s.m);
            std::vector<float> rows(static_cast<size_t>((i1 - i0) * s.n), 0.0f);
            // A(i0, 0): row i0 of a row-major A, column i0 of a transposed one.
            GemmRowRangeAccumulate(a.data() + (ta ? i0 : i0 * s.k), b.data(),
                                   rows.data(), s.m, s.k, s.n, ta, tb, i0, i1);
            EXPECT_EQ(std::memcmp(rows.data(), whole.data() + i0 * s.n,
                                  rows.size() * sizeof(float)),
                      0)
                << core::SimdLevelName(level) << " " << ShapeName(s, ta, tb)
                << " rows [" << i0 << ", " << i1 << ")";
          }
        }
      }
    }
  }
}

// -- Edge shapes ------------------------------------------------------------

TEST(MatmulTest, EmptyAndDegenerateShapes) {
  core::Rng rng(19);
  // Zero rows / zero columns: a well-formed empty result.
  Tensor a0 = Tensor::Zeros(Shape{0, 5});
  Tensor b = Tensor::RandomNormal(Shape{5, 3}, rng);
  EXPECT_EQ(Matmul(a0, b).shape(), Shape({0, 3}));
  Tensor a = Tensor::RandomNormal(Shape{4, 5}, rng);
  Tensor bn0 = Tensor::Zeros(Shape{5, 0});
  EXPECT_EQ(Matmul(a, bn0).shape(), Shape({4, 0}));
  // Zero inner dimension: an all-zeros result (the empty sum).
  Tensor ak0 = Tensor::Zeros(Shape{4, 0});
  Tensor bk0 = Tensor::Zeros(Shape{0, 3});
  Tensor ck0 = Matmul(ak0, bk0);
  ASSERT_EQ(ck0.shape(), Shape({4, 3}));
  for (float v : ck0.ToVector()) EXPECT_EQ(v, 0.0f);
  // 1x1 everything.
  Tensor one = Matmul(Tensor::Full(Shape{1, 1}, 3.0f),
                      Tensor::Full(Shape{1, 1}, -2.0f));
  EXPECT_FLOAT_EQ(one.at({0, 0}), -6.0f);
}

TEST(BmmTest, EmptyAndDegenerateShapes) {
  // Zero batch.
  Tensor c0 = Bmm(Tensor::Zeros(Shape{0, 3, 4}), Tensor::Zeros(Shape{0, 4, 5}));
  EXPECT_EQ(c0.shape(), Shape({0, 3, 5}));
  // Zero inner dim with transpose flags.
  Tensor ck0 = Bmm(Tensor::Zeros(Shape{2, 0, 3}), Tensor::Zeros(Shape{2, 4, 0}),
                   /*transpose_a=*/true, /*transpose_b=*/true);
  ASSERT_EQ(ck0.shape(), Shape({2, 3, 4}));
  for (float v : ck0.ToVector()) EXPECT_EQ(v, 0.0f);
  // 1x1x1 batch entries.
  Tensor c1 = Bmm(Tensor::Full(Shape{3, 1, 1}, 2.0f),
                  Tensor::Full(Shape{3, 1, 1}, 5.0f));
  ASSERT_EQ(c1.shape(), Shape({3, 1, 1}));
  for (float v : c1.ToVector()) EXPECT_FLOAT_EQ(v, 10.0f);
}

// -- Concurrent callers ------------------------------------------------------

// The serving and training splits run one batch item per pool task, so the
// kernels run on several threads at once, each with its own thread_local
// scratch: the tiled GEMM's transposed-B panel and the fused attention's
// row-block buffers, forward and backward. Every concurrent call must give
// the bits a lone call gives.
TEST(MatmulTest, KernelsCalledFromConcurrentPoolTasksMatchOneCallBits) {
  core::Rng rng(23);
  // Tiled, and tiled with B transposed: the panel copy runs.
  Tensor a = Tensor::RandomNormal(Shape{131, 65}, rng);
  Tensor b = Tensor::RandomNormal(Shape{65, 67}, rng);
  Tensor bt = Tensor::RandomNormal(Shape{1, 67, 65}, rng);
  // Three heads of dk = 9 over 70 queries and 65 keys: no attention form
  // takes it, so the row-block path gathers heads into its scratch.
  const int64_t batch = 2, heads = 3, lq = 70, lk = 65, hd = 3 * 9;
  Tensor q = Tensor::RandomNormal(Shape{batch, lq, hd}, rng);
  Tensor k = Tensor::RandomNormal(Shape{batch, lk, hd}, rng);
  Tensor v = Tensor::RandomNormal(Shape{batch, lk, hd}, rng);
  Tensor dout = Tensor::RandomNormal(Shape{batch, lq, hd}, rng);
  const AttentionDims dims = FusedAttentionDims(q, k, v, nullptr, heads);
  auto run = [&] {
    std::vector<Tensor> out = {
        Matmul(a, b),
        Bmm(a.Reshape(Shape{1, 131, 65}), bt, false, true),
        Tensor::Empty(q.shape()), Tensor::Empty(q.shape()),
        Tensor::Empty(k.shape()), Tensor::Empty(v.shape())};
    FusedAttentionInto(q.data(), k.data(), v.data(), nullptr, out[2].data(),
                       dims, 0.5f);
    FusedAttentionBackward(q.data(), k.data(), v.data(), nullptr, dout.data(),
                           out[3].data(), out[4].data(), out[5].data(), dims,
                           0.5f);
    return out;
  };
  const std::vector<Tensor> expected = run();
  constexpr int kCallers = 8;
  std::vector<std::vector<Tensor>> results(kCallers);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kCallers; ++i) {
    tasks.push_back([&, i] { results[i] = run(); });
  }
  core::ThreadPool(4).RunAndWait(std::move(tasks));
  for (int i = 0; i < kCallers; ++i) {
    for (size_t r = 0; r < expected.size(); ++r) {
      ExpectIdentical(results[i][r], expected[r],
                      "caller " + std::to_string(i) + " result " +
                          std::to_string(r));
    }
  }
}

TEST(BmmTest, BatchesAreIndependent) {
  core::Rng rng(9);
  Tensor a = Tensor::RandomNormal(Shape{2, 3, 4}, rng);
  Tensor b = Tensor::RandomNormal(Shape{2, 4, 5}, rng);
  Tensor c = Bmm(a, b);
  // Zeroing batch 1 of the inputs must not change batch 0 of the output.
  Tensor a0 = a.Clone();
  for (int64_t i = 0; i < 12; ++i) a0.data()[12 + i] = 0.0f;
  Tensor c0 = Bmm(a0, b);
  EXPECT_TRUE(AllClose(Slice(c, 0, 0, 1), Slice(c0, 0, 0, 1), 1e-6f, 1e-6f));
}

}  // namespace
}  // namespace sstban::tensor
