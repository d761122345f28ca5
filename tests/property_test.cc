// Property-based sweeps: randomized shapes and inputs checked against
// reference implementations and algebraic invariants, parameterized with
// TEST_P so each property runs across a grid of configurations.

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/rng.h"
#include "core/storage_pool.h"
#include "data/dataset.h"
#include "sstban/config.h"
#include "sstban/masking.h"
#include "sstban/model.h"
#include "sstban/stba_block.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

// -- Broadcast algebra --------------------------------------------------------

class BroadcastProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BroadcastProperty, AddMatchesExplicitLoops) {
  auto [b, n, d] = GetParam();
  core::Rng rng(b * 100 + n * 10 + d);
  t::Tensor full = t::Tensor::RandomNormal(t::Shape{b, n, d}, rng);
  t::Tensor row = t::Tensor::RandomNormal(t::Shape{1, n, 1}, rng);
  t::Tensor sum = t::Add(full, row);
  for (int64_t i = 0; i < b; ++i)
    for (int64_t j = 0; j < n; ++j)
      for (int64_t k = 0; k < d; ++k)
        ASSERT_FLOAT_EQ(sum.at({i, j, k}),
                        full.at({i, j, k}) + row.at({0, j, 0}));
}

TEST_P(BroadcastProperty, MulCommutesAndDistributes) {
  auto [b, n, d] = GetParam();
  core::Rng rng(b + n + d);
  t::Tensor x = t::Tensor::RandomNormal(t::Shape{b, n, d}, rng);
  t::Tensor y = t::Tensor::RandomNormal(t::Shape{n, d}, rng);
  t::Tensor z = t::Tensor::RandomNormal(t::Shape{d}, rng);
  EXPECT_TRUE(t::AllClose(t::Mul(x, y), t::Mul(y, x), 1e-5f, 1e-5f));
  // (x + y) * z == x*z + y*z
  t::Tensor lhs = t::Mul(t::Add(x, y), z);
  t::Tensor rhs = t::Add(t::Mul(x, z), t::Mul(y, z));
  EXPECT_TRUE(t::AllClose(lhs, rhs, 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, BroadcastProperty,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(4, 7, 2),
                                           std::make_tuple(3, 1, 8)));

// -- Permute round trips --------------------------------------------------

class PermuteProperty : public ::testing::TestWithParam<int> {};

TEST_P(PermuteProperty, RandomPermutationRoundTrips) {
  core::Rng rng(GetParam());
  // Random rank in [2, 5], random small dims, random permutation.
  int rank = 2 + static_cast<int>(rng.NextBelow(4));
  std::vector<int64_t> dims;
  for (int i = 0; i < rank; ++i) dims.push_back(1 + rng.NextBelow(5));
  std::vector<int64_t> perm64(rank);
  for (int i = 0; i < rank; ++i) perm64[i] = i;
  rng.Shuffle(perm64);
  std::vector<int> perm(perm64.begin(), perm64.end());
  std::vector<int> inverse(rank);
  for (int i = 0; i < rank; ++i) inverse[perm[i]] = i;

  t::Tensor x = t::Tensor::RandomNormal(t::Shape(dims), rng);
  t::Tensor round = t::Permute(t::Permute(x, perm), inverse);
  EXPECT_TRUE(t::AllClose(round, x, 0, 0)) << "seed " << GetParam();
}

TEST_P(PermuteProperty, PermutePreservesMultiset) {
  core::Rng rng(GetParam() + 1000);
  t::Tensor x = t::Tensor::RandomNormal(t::Shape{3, 4, 5}, rng);
  t::Tensor p = t::Permute(x, {2, 0, 1});
  EXPECT_FLOAT_EQ(t::SumAll(p).item(), t::SumAll(x).item());
  EXPECT_FLOAT_EQ(t::MaxAll(p), t::MaxAll(x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermuteProperty, ::testing::Range(0, 12));

// -- Softmax invariants -----------------------------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, ShiftInvarianceAndNormalization) {
  core::Rng rng(GetParam());
  int64_t rows = 1 + rng.NextBelow(6), cols = 1 + rng.NextBelow(9);
  t::Tensor x = t::Tensor::RandomNormal(t::Shape{rows, cols}, rng, 0.0f, 4.0f);
  t::Tensor s1 = t::Softmax(x);
  // softmax(x + c) == softmax(x) for a per-row constant shift.
  t::Tensor shifted = t::AddScalar(x, 13.7f);
  t::Tensor s2 = t::Softmax(shifted);
  EXPECT_TRUE(t::AllClose(s1, s2, 1e-5f, 1e-4f));
  for (int64_t r = 0; r < rows; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < cols; ++c) {
      float v = s1.at({r, c});
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Range(100, 110));

// -- Bmm against naive reference, random shapes -------------------------------

class BmmProperty : public ::testing::TestWithParam<int> {};

TEST_P(BmmProperty, MatchesNaiveAtRandomShapes) {
  core::Rng rng(GetParam());
  int64_t batch = 1 + rng.NextBelow(4);
  int64_t m = 1 + rng.NextBelow(10);
  int64_t k = 1 + rng.NextBelow(10);
  int64_t n = 1 + rng.NextBelow(10);
  t::Tensor a = t::Tensor::RandomNormal(t::Shape{batch, m, k}, rng);
  t::Tensor b = t::Tensor::RandomNormal(t::Shape{batch, k, n}, rng);
  t::Tensor c = t::Bmm(a, b);
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0;
        for (int64_t p = 0; p < k; ++p) acc += a.at({bi, i, p}) * b.at({bi, p, j});
        ASSERT_NEAR(c.at({bi, i, j}), acc, 1e-3 + 1e-3 * std::fabs(acc))
            << "seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmmProperty, ::testing::Range(200, 216));

// -- Gradient linearity ---------------------------------------------------

class GradientProperty : public ::testing::TestWithParam<int> {};

TEST_P(GradientProperty, GradOfScaledLossScales) {
  core::Rng rng(GetParam());
  t::Tensor x0 = t::Tensor::RandomNormal(t::Shape{4, 3}, rng);
  auto grad_of = [&](float scale) {
    ag::Variable x(x0.Clone(), true);
    ag::Variable loss = ag::MulScalar(ag::SumAll(ag::Square(x)), scale);
    loss.Backward();
    return x.grad().Clone();
  };
  t::Tensor g1 = grad_of(1.0f);
  t::Tensor g3 = grad_of(3.0f);
  EXPECT_TRUE(t::AllClose(t::MulScalar(g1, 3.0f), g3, 1e-5f, 1e-5f));
}

TEST_P(GradientProperty, BackwardTwiceFromFreshGraphsIsIdentical) {
  core::Rng rng(GetParam() + 50);
  t::Tensor x0 = t::Tensor::RandomNormal(t::Shape{5}, rng);
  auto run = [&]() {
    ag::Variable x(x0.Clone(), true);
    ag::MeanAll(ag::Tanh(ag::Mul(x, x))).Backward();
    return x.grad().Clone();
  };
  EXPECT_TRUE(t::AllClose(run(), run(), 0, 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientProperty, ::testing::Range(300, 308));

// -- Masking over the full strategy x rate grid -----------------------------

class MaskGridProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MaskGridProperty, MaskedFractionNeverExceedsRatePlusOnePatch) {
  auto [strategy_index, rate] = GetParam();
  auto strategy = static_cast<sstban::MaskStrategy>(strategy_index);
  core::Rng rng(strategy_index * 31 + static_cast<int>(rate * 100));
  const int64_t p = 24, n = 7, c = 2, patch = 5;
  t::Tensor mask = sstban::GenerateMask(p, n, c, patch, rate, strategy, rng);
  double masked = 1.0 - t::MeanAll(mask).item();
  // Sampling floors the patch count, so the realized fraction can never
  // exceed the requested rate by more than one patch's worth.
  EXPECT_LE(masked, rate + 1.0 / 4.0 + 1e-6);
  // And something must remain visible.
  EXPECT_LT(masked, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaskGridProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75)));

// -- STBA block shape grid ----------------------------------------------------

class StbaShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(StbaShapeProperty, ForwardPreservesShapeAndStaysFinite) {
  auto [batch, time, nodes] = GetParam();
  core::Rng rng(batch * 7 + time * 3 + nodes);
  sstban::StbaBlock block(4, 2, 2, 2, /*use_bottleneck=*/true, rng);
  ag::Variable h(t::Tensor::RandomNormal(t::Shape{batch, time, nodes, 4}, rng));
  ag::Variable e(t::Tensor::RandomNormal(t::Shape{batch, time, nodes, 4}, rng));
  ag::Variable out = block.Forward(h, e);
  EXPECT_EQ(out.shape(), t::Shape({batch, time, nodes, 4}));
  EXPECT_FALSE(t::HasNonFinite(out.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StbaShapeProperty,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Values(2, 9),
                       ::testing::Values(1, 6)));

// -- Training-step determinism -----------------------------------------------

struct TrainingRunResult {
  float loss;
  std::vector<std::pair<std::string, t::Tensor>> grads;
};

// One full SSTBAN forward + backward from a fresh model. Model init and the
// masking RNG are functions of the config seed, so two runs differ only if
// the kernels themselves are nondeterministic.
TrainingRunResult RunTrainingStep() {
  sstban::SstbanConfig c;
  c.num_nodes = 5;
  c.input_len = 8;
  c.output_len = 8;
  c.num_features = 1;
  c.steps_per_day = 12;
  c.hidden_dim = 4;
  c.num_heads = 2;
  c.encoder_blocks = 1;
  c.decoder_blocks = 1;
  c.recon_blocks = 1;
  c.temporal_refs = 2;
  c.spatial_refs = 2;
  c.patch_len = 2;
  c.mask_rate = 0.3;
  c.lambda = 0.2;
  sstban::SstbanModel model(c);
  data::Batch batch;
  core::Rng rng(42);
  batch.x = t::Tensor::RandomNormal(
      t::Shape{2, c.input_len, c.num_nodes, c.num_features}, rng);
  batch.y = t::Tensor::RandomNormal(
      t::Shape{2, c.output_len, c.num_nodes, c.num_features}, rng);
  for (int64_t i = 0; i < 2 * c.input_len; ++i) {
    batch.tod_in.push_back(i % c.steps_per_day);
    batch.dow_in.push_back((i / c.steps_per_day) % 7);
  }
  for (int64_t i = 0; i < 2 * c.output_len; ++i) {
    batch.tod_out.push_back((i + 3) % c.steps_per_day);
    batch.dow_out.push_back(((i + 3) / c.steps_per_day) % 7);
  }
  ag::Variable loss = model.TrainingLoss(batch.x, batch.y, batch);
  model.ZeroGrad();
  loss.Backward();
  TrainingRunResult result;
  result.loss = loss.item();
  for (auto& [name, p] : model.NamedParameters()) {
    result.grads.emplace_back(name, p.grad().Clone());
  }
  return result;
}

void ExpectBitwiseIdentical(const TrainingRunResult& a,
                            const TrainingRunResult& b,
                            const std::string& what) {
  // Exact float equality: the kernels promise bitwise determinism, so any
  // drift — even 1 ulp — is a bug, not acceptable noise.
  EXPECT_EQ(a.loss, b.loss) << what;
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t g = 0; g < a.grads.size(); ++g) {
    ASSERT_EQ(a.grads[g].first, b.grads[g].first) << what;
    const t::Tensor& ta = a.grads[g].second;
    const t::Tensor& tb = b.grads[g].second;
    ASSERT_EQ(ta.shape(), tb.shape()) << what << ": " << a.grads[g].first;
    for (int64_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.data()[i], tb.data()[i])
          << what << ": grad " << a.grads[g].first << " element " << i;
    }
  }
}

// The storage pool must be transparent: recycled (uninitialized) buffers
// are always fully overwritten before use, so a training step produces
// bit-identical losses and gradients with the pool on or off — including a
// warm pool whose buffers carry stale values from the previous run.
TEST(DeterminismProperty, TrainingStepIsBitwiseIdenticalPoolOnVsOff) {
  core::StoragePool& pool = core::StoragePool::Global();
  pool.SetEnabledForTesting(true);
  TrainingRunResult pooled_cold = RunTrainingStep();
  TrainingRunResult pooled_warm = RunTrainingStep();
  pool.SetEnabledForTesting(false);
  TrainingRunResult plain = RunTrainingStep();
  pool.SetEnabledForTesting(true);
  EXPECT_GT(plain.grads.size(), 0u);
  EXPECT_TRUE(std::isfinite(plain.loss));
  ExpectBitwiseIdentical(plain, pooled_cold, "pool off vs cold pool");
  ExpectBitwiseIdentical(plain, pooled_warm, "pool off vs warm pool");
}

}  // namespace
}  // namespace sstban
