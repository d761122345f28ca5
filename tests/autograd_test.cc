#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "gradcheck.h"
#include "tensor/ops.h"

namespace sstban::autograd {
namespace {

namespace t = ::sstban::tensor;
using sstban::testing::ExpectGradientsMatch;

t::Tensor Rand(t::Shape shape, uint64_t seed, float scale = 1.0f) {
  core::Rng rng(seed);
  return t::Tensor::RandomNormal(std::move(shape), rng, 0.0f, scale);
}

TEST(VariableTest, LeafProperties) {
  Variable v(t::Tensor::Ones(t::Shape{2, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.shape(), t::Shape({2, 2}));
}

TEST(VariableTest, BackwardThroughSimpleChain) {
  Variable x(t::Tensor::Full(t::Shape{3}, 2.0f), true);
  Variable y = SumAll(Mul(x, x));  // d/dx sum(x^2) = 2x
  y.Backward();
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(x.grad().data()[i], 4.0f);
}

TEST(VariableTest, GradAccumulatesAcrossUses) {
  Variable x(t::Tensor::Full(t::Shape{2}, 3.0f), true);
  Variable y = SumAll(Add(x, x));  // x used twice -> grad 2
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 2.0f);
}

TEST(VariableTest, DiamondGraphGradientIsCorrect) {
  // y = sum((x+x) * x) = sum(2 x^2) -> dy/dx = 4x.
  Variable x(t::Tensor::Full(t::Shape{2}, 1.5f), true);
  Variable y = SumAll(Mul(Add(x, x), x));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 6.0f);
}

TEST(VariableTest, DetachStopsGradient) {
  Variable x(t::Tensor::Full(t::Shape{2}, 2.0f), true);
  Variable y = SumAll(Mul(x.Detach(), x));  // only the second factor gets grad
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 2.0f);
}

TEST(VariableTest, NoGradGuardDisablesRecording) {
  Variable x(t::Tensor::Full(t::Shape{2}, 2.0f), true);
  NoGradGuard guard;
  Variable y = Mul(x, x);
  EXPECT_FALSE(y.requires_grad());
}

TEST(VariableTest, ZeroGradClears) {
  Variable x(t::Tensor::Full(t::Shape{1}, 2.0f), true);
  SumAll(Mul(x, x)).Backward();
  EXPECT_TRUE(x.has_grad());
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, ConstantInputsGetNoGrad) {
  Variable x(t::Tensor::Full(t::Shape{1}, 2.0f), true);
  Variable c(t::Tensor::Full(t::Shape{1}, 5.0f), false);
  Variable y = SumAll(Mul(x, c));
  y.Backward();
  EXPECT_TRUE(x.has_grad());
  EXPECT_FALSE(c.has_grad());
}

// -- Gradient checks, one per op family ------------------------------------

TEST(GradCheckTest, AddWithBroadcast) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) { return SumAll(Mul(Add(v[0], v[1]), v[0])); },
      {Rand({2, 3}, 1), Rand({3}, 2)});
}

TEST(GradCheckTest, SubDivMul) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        return SumAll(Div(Mul(v[0], v[1]), AddScalar(Square(v[2]), 1.0f)));
      },
      {Rand({2, 2}, 3), Rand({2, 2}, 4), Rand({2, 2}, 5)});
}

TEST(GradCheckTest, UnaryChain) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        return MeanAll(Tanh(Add(Sigmoid(v[0]), Relu(v[0]))));
      },
      {Rand({3, 3}, 6)});
}

TEST(GradCheckTest, ExpLogSqrt) {
  // Keep inputs positive and away from zero for log/sqrt.
  core::Rng rng(7);
  t::Tensor x = t::Tensor::RandomUniform(t::Shape{4}, rng, 0.5f, 2.0f);
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        return SumAll(Add(Log(v[0]), Sqrt(Exp(v[0]))));
      },
      {x});
}

TEST(GradCheckTest, AbsAwayFromZero) {
  core::Rng rng(8);
  t::Tensor x = t::Tensor::RandomUniform(t::Shape{4}, rng, 0.5f, 2.0f);
  x.data()[1] *= -1.0f;
  x.data()[3] *= -1.0f;
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) { return SumAll(Abs(v[0])); }, {x});
}

TEST(GradCheckTest, Matmul2D) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) { return SumAll(Square(Matmul(v[0], v[1]))); },
      {Rand({3, 4}, 9, 0.5f), Rand({4, 2}, 10, 0.5f)});
}

class BmmGradTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BmmGradTest, MatchesNumeric) {
  auto [ta, tb] = GetParam();
  t::Shape a_shape = ta ? t::Shape{2, 3, 4} : t::Shape{2, 4, 3};
  t::Shape b_shape = tb ? t::Shape{2, 5, 3} : t::Shape{2, 3, 5};
  ExpectGradientsMatch(
      [ta, tb](std::vector<Variable>& v) {
        return SumAll(Square(Bmm(v[0], v[1], ta, tb)));
      },
      {Rand(a_shape, 11, 0.5f), Rand(b_shape, 12, 0.5f)});
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, BmmGradTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(GradCheckTest, ReshapePermute) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        Variable p = Permute(v[0], {2, 0, 1});
        return SumAll(Square(Reshape(p, t::Shape{4, 6})));
      },
      {Rand({2, 3, 4}, 13)});
}

TEST(GradCheckTest, ConcatSlice) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        Variable c = Concat({v[0], v[1]}, 1);
        return SumAll(Square(Slice(c, 1, 1, 3)));
      },
      {Rand({2, 2}, 14), Rand({2, 3}, 15)});
}

TEST(GradCheckTest, SumMeanAxis) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        return SumAll(Square(Add(Sum(v[0], 0), Mean(v[0], 0))));
      },
      {Rand({3, 4}, 16)});
}

TEST(GradCheckTest, SumKeepdim) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        return SumAll(Square(Sub(v[0], Mean(v[0], -1, true))));
      },
      {Rand({2, 5}, 17)});
}

TEST(GradCheckTest, Softmax) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        Variable s = Softmax(v[0]);
        return SumAll(Mul(s, v[1]));
      },
      {Rand({3, 4}, 18), Rand({3, 4}, 19)});
}

TEST(GradCheckTest, SoftmaxWithMask) {
  t::Tensor mask = t::Tensor::Zeros(t::Shape{2, 4});
  mask.at({0, 1}) = -1e9f;
  mask.at({1, 3}) = -1e9f;
  ExpectGradientsMatch(
      [mask](std::vector<Variable>& v) {
        return SumAll(Square(Softmax(Add(v[0], Variable(mask)))));
      },
      {Rand({2, 4}, 20)});
}

TEST(GradCheckTest, EmbeddingLookup) {
  std::vector<int64_t> indices = {0, 2, 2, 1};
  ExpectGradientsMatch(
      [&indices](std::vector<Variable>& v) {
        return SumAll(Square(EmbeddingLookup(v[0], indices)));
      },
      {Rand({3, 4}, 21)});
}

TEST(GradCheckTest, Conv1dTimeWithDilation) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        return SumAll(Square(Conv1dTime(v[0], v[1], v[2], /*dilation=*/2)));
      },
      {Rand({2, 7, 3}, 22, 0.5f), Rand({2, 3, 4}, 23, 0.5f), Rand({4}, 24, 0.5f)});
}

TEST(GradCheckTest, Losses) {
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) { return MseLoss(v[0], v[1]); },
      {Rand({3, 3}, 25), Rand({3, 3}, 26)});
  // MAE gradient is discontinuous at 0; keep pred and target separated.
  t::Tensor pred = t::Tensor::Full(t::Shape{4}, 2.0f);
  t::Tensor target = t::Tensor::FromVector(t::Shape{4}, {0.0f, 1.0f, 3.5f, 4.0f});
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) { return MaeLoss(v[0], v[1]); },
      {pred, target});
}

TEST(GradCheckTest, FanOutSharesGradients) {
  // x feeds three ops and Mul reads it twice, so four gradients meet at the
  // leaf: the first is copied, the rest are added in place.
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        const Variable& x = v[0];
        Variable moved = Permute(Reshape(x, t::Shape{2, 2, 3}), {2, 0, 1});
        Variable probs = Softmax(x);
        return Add(Add(SumAll(Mul(Mul(x, x), v[1])), SumAll(Mul(moved, v[2]))),
                   SumAll(Mul(probs, v[1])));
      },
      {Rand({2, 6}, 29), Rand({2, 6}, 30), Rand({3, 2, 2}, 31)});
}

TEST(GradCheckTest, SiblingsShareOneGradient) {
  // Add hands one tensor to both operands. `a` then receives a second
  // gradient from Mul(a, b) while `b` still holds that tensor, so the sum
  // must be made out of place or b's gradient changes under it.
  ExpectGradientsMatch(
      [](std::vector<Variable>& v) {
        Variable a = Tanh(v[0]);
        Variable b = Sigmoid(v[0]);
        return Add(SumAll(Mul(a, b)), SumAll(Mul(Add(a, b), v[1])));
      },
      {Rand({2, 3}, 32), Rand({2, 3}, 33)});
}

TEST(OpsTest, Conv1dTimeShapeAndValues) {
  // Kernel [1, 1] summing two adjacent steps of a single channel.
  Variable x(t::Tensor::FromVector(t::Shape{1, 4, 1}, {1, 2, 3, 4}));
  Variable w(t::Tensor::FromVector(t::Shape{2, 1, 1}, {1, 1}));
  Variable out = Conv1dTime(x, w, Variable(), 1);
  EXPECT_EQ(out.shape(), t::Shape({1, 3, 1}));
  EXPECT_EQ(out.value().ToVector(), (std::vector<float>{3, 5, 7}));
  // Dilation 2 pairs steps two apart.
  Variable out2 = Conv1dTime(x, w, Variable(), 2);
  EXPECT_EQ(out2.value().ToVector(), (std::vector<float>{4, 6}));
}

// -- What the graph keeps alive -------------------------------------------

constexpr int64_t kMiB = int64_t{1} << 20;

// A 1 MiB leaf.
Variable MiBLeaf(float value) {
  return Variable(t::Tensor::Full(t::Shape{kMiB / 4}, value), true);
}

int64_t LiveBytes() { return core::MemoryTracker::Global().live_bytes(); }

TEST(GraphMemoryTest, NonSavingChainKeepsOnlyItsResult) {
  Variable x = MiBLeaf(1.0f);
  const int64_t before = LiveBytes();
  Variable y = x;
  for (int i = 0; i < 8; ++i) {
    y = i % 2 == 0 ? AddScalar(y, 1.0f) : MulScalar(y, 0.5f);
  }
  EXPECT_LE(LiveBytes() - before, kMiB);

  Variable loss = SumAll(y);
  loss.Backward();
  EXPECT_TRUE(x.has_grad());
  EXPECT_TRUE(loss.has_grad());
  EXPECT_FALSE(y.has_grad());
  // y's value and x's gradient; every interior gradient has been dropped.
  EXPECT_LE(LiveBytes() - before, 2 * kMiB + 4096);
}

TEST(GraphMemoryTest, MulKeepsItsInputsAndAddKeepsNone) {
  Variable a = MiBLeaf(1.0f);
  Variable b = MiBLeaf(2.0f);
  const int64_t before = LiveBytes();
  Variable product = Mul(AddScalar(a, 1.0f), AddScalar(b, 1.0f));
  // The product plus the two factors its backward reads.
  EXPECT_EQ(LiveBytes() - before, 3 * kMiB);
  Variable sum = Add(AddScalar(a, 1.0f), AddScalar(b, 1.0f));
  EXPECT_EQ(LiveBytes() - before, 4 * kMiB);
}

TEST(GraphMemoryTest, BackwardLeavesGradientsOnLeavesOnly) {
  Variable a = MiBLeaf(1.0f);
  Variable b = MiBLeaf(2.0f);
  Variable shifted = AddScalar(a, 1.0f);
  Variable product = Mul(shifted, b);
  Variable loss = SumAll(Add(product, shifted));
  loss.Backward();
  EXPECT_FALSE(shifted.has_grad());
  EXPECT_FALSE(product.has_grad());
  ASSERT_TRUE(a.has_grad());
  ASSERT_TRUE(b.has_grad());
  EXPECT_FLOAT_EQ(a.grad().data()[0], 3.0f);  // b + 1
  EXPECT_FLOAT_EQ(b.grad().data()[0], 2.0f);  // a + 1
}

}  // namespace
}  // namespace sstban::autograd
