#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_features.h"
#include "core/rng.h"
#include "simd_tiers.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sstban::tensor {
namespace {

Tensor T(std::initializer_list<int64_t> shape, std::vector<float> values) {
  return Tensor::FromVector(Shape(shape), std::move(values));
}

TEST(ElementwiseTest, AddSameShape) {
  Tensor c = Add(T({2, 2}, {1, 2, 3, 4}), T({2, 2}, {10, 20, 30, 40}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(ElementwiseTest, SubMulDiv) {
  Tensor a = T({3}, {4, 9, 16});
  Tensor b = T({3}, {2, 3, 4});
  EXPECT_EQ(Sub(a, b).ToVector(), (std::vector<float>{2, 6, 12}));
  EXPECT_EQ(Mul(a, b).ToVector(), (std::vector<float>{8, 27, 64}));
  EXPECT_EQ(Div(a, b).ToVector(), (std::vector<float>{2, 3, 4}));
}

TEST(ElementwiseTest, BroadcastScalar) {
  Tensor c = Add(T({2, 2}, {1, 2, 3, 4}), Tensor::Scalar(10.0f));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 12, 13, 14}));
  Tensor d = Sub(Tensor::Scalar(10.0f), T({2}, {1, 2}));
  EXPECT_EQ(d.ToVector(), (std::vector<float>{9, 8}));
}

TEST(ElementwiseTest, BroadcastRowAndColumn) {
  // [2,3] + [3] broadcasts over rows.
  Tensor c = Add(T({2, 3}, {0, 0, 0, 10, 10, 10}), T({3}, {1, 2, 3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 3, 11, 12, 13}));
  // [2,1] * [1,3] -> outer product shape.
  Tensor d = Mul(T({2, 1}, {2, 3}), T({1, 3}, {1, 10, 100}));
  EXPECT_EQ(d.shape(), Shape({2, 3}));
  EXPECT_EQ(d.ToVector(), (std::vector<float>{2, 20, 200, 3, 30, 300}));
}

TEST(ElementwiseTest, Broadcast4D) {
  // The STE pattern: [B,L,1,d] + [1,1,N,d].
  Tensor a = Tensor::Ones(Shape{2, 3, 1, 4});
  Tensor b = Tensor::Full(Shape{1, 1, 5, 4}, 2.0f);
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 3, 5, 4}));
  for (float v : c.ToVector()) EXPECT_EQ(v, 3.0f);
}

// NaN, signed zeros, infinities and a subnormal, written over the start of
// `t` so every length below meets some of them.
void PlantSpecials(Tensor& t) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min() * 3};
  for (int64_t i = 0; i < t.size() && i < 6; ++i) t.data()[i] = specials[i];
}

bool SameBits(const Tensor& got, const Tensor& want) {
  return got.shape() == want.shape() &&
         std::memcmp(got.data(), want.data(),
                     static_cast<size_t>(want.size()) * sizeof(float)) == 0;
}

// Every fast path of the binary ops (same shape, scalar b, scalar a, b a
// trailing suffix of a) and the odometer give the naive loop's bits on every
// SIMD tier: element i meets a[i % a.size()] and b[i % b.size()].
TEST(ElementwiseTest, BinaryOpsMatchNaiveLoopOnEveryTier) {
  struct Case { Shape a, b; };
  const std::vector<Case> cases = {
      {Shape{1027}, Shape{1027}},          // same shape, n % 8 != 0
      {Shape{3, 5, 7}, Shape{3, 5, 7}},
      {Shape{9, 7}, Shape{1}},             // scalar b
      {Shape{1027}, Shape{}},
      {Shape{1}, Shape{6, 9}},             // scalar a
      {Shape{2000, 13}, Shape{13}},        // trailing suffix, n % 8 != 0
      {Shape{300, 37}, Shape{37}},
      {Shape{6, 50, 3, 5}, Shape{3, 5}},   // multi-axis suffix
      {Shape{4, 29472 / 4, 16}, Shape{16}},
      {Shape{14736, 32}, Shape{32}},
      {Shape{2000, 13}, Shape{1, 13}},     // odometer
      {Shape{37}, Shape{300, 37}},
  };
  struct Op {
    const char* name;
    Tensor (*run)(const Tensor&, const Tensor&);
    float (*naive)(float, float);
  };
  const Op ops[] = {
      {"Add", Add, [](float x, float y) { return x + y; }},
      {"Sub", Sub, [](float x, float y) { return x - y; }},
      {"Mul", Mul, [](float x, float y) { return x * y; }},
      {"Div", Div, [](float x, float y) { return x / y; }},
  };
  for (core::SimdLevel level : sstban::testing::AvailableLevels()) {
    sstban::testing::ScopedSimdLevel scoped(level);
    core::Rng rng(12);
    for (const Case& c : cases) {
      Tensor a = Tensor::RandomNormal(c.a, rng);
      Tensor b = Tensor::RandomNormal(c.b, rng);
      PlantSpecials(a.size() >= b.size() ? a : b);
      const int64_t n = std::max(a.size(), b.size());
      for (const Op& op : ops) {
        SCOPED_TRACE(std::string(core::SimdLevelName(level)) + " " + op.name +
                     " " + c.a.ToString() + " " + c.b.ToString());
        Tensor want = Tensor::Empty(a.size() >= b.size() ? c.a : c.b);
        for (int64_t i = 0; i < n; ++i) {
          want.data()[i] = op.naive(a.data()[i % a.size()],
                                    b.data()[i % b.size()]);
        }
        EXPECT_TRUE(SameBits(op.run(a, b), want));
      }
    }
  }
}

// AddScalar, MulScalar and Relu give the naive loop's bits on every tier,
// at lengths around the 8-lane vector width and on special values; Relu
// maps NaN and -0 to +0.
TEST(ElementwiseTest, ScalarMapsAndReluMatchNaiveLoopOnEveryTier) {
  for (core::SimdLevel level : sstban::testing::AvailableLevels()) {
    sstban::testing::ScopedSimdLevel scoped(level);
    core::Rng rng(13);
    for (int64_t n : {1, 7, 8, 9, 1027}) {
      SCOPED_TRACE(std::string(core::SimdLevelName(level)) +
                   " n=" + std::to_string(n));
      Tensor a = Tensor::RandomNormal(Shape{n}, rng);
      PlantSpecials(a);
      for (float s : {0.37f, -1.91f, 0.0f}) {
        Tensor add = Tensor::Empty(Shape{n});
        Tensor mul = Tensor::Empty(Shape{n});
        for (int64_t i = 0; i < n; ++i) {
          add.data()[i] = a.data()[i] + s;
          mul.data()[i] = a.data()[i] * s;
        }
        EXPECT_TRUE(SameBits(AddScalar(a, s), add)) << "AddScalar " << s;
        EXPECT_TRUE(SameBits(MulScalar(a, s), mul)) << "MulScalar " << s;
      }
      Tensor relu = Tensor::Empty(Shape{n});
      for (int64_t i = 0; i < n; ++i) {
        relu.data()[i] = a.data()[i] > 0 ? a.data()[i] : 0.0f;
      }
      Tensor got = Relu(a);
      EXPECT_TRUE(SameBits(got, relu)) << "Relu";
      for (int64_t i = 0; i < n && i < 3; ++i) {
        // a[0] is NaN, a[1] is +0 and a[2] is -0: all give +0.
        EXPECT_EQ(got.data()[i], 0.0f);
        EXPECT_FALSE(std::signbit(got.data()[i]));
      }
    }
  }
}

TEST(ElementwiseTest, UnaryFunctions) {
  Tensor a = T({4}, {-2, -0.5, 0.5, 2});
  EXPECT_EQ(Neg(a).ToVector(), (std::vector<float>{2, 0.5, -0.5, -2}));
  EXPECT_EQ(Abs(a).ToVector(), (std::vector<float>{2, 0.5, 0.5, 2}));
  EXPECT_EQ(Sign(a).ToVector(), (std::vector<float>{-1, -1, 1, 1}));
  EXPECT_EQ(Relu(a).ToVector(), (std::vector<float>{0, 0, 0.5, 2}));
  EXPECT_EQ(Square(a).ToVector(), (std::vector<float>{4, 0.25, 0.25, 4}));
  Tensor s = Sigmoid(T({1}, {0}));
  EXPECT_FLOAT_EQ(s.item(), 0.5f);
  EXPECT_FLOAT_EQ(Tanh(T({1}, {0})).item(), 0.0f);
  EXPECT_NEAR(Exp(T({1}, {1})).item(), std::exp(1.0f), 1e-5);
  EXPECT_NEAR(Log(T({1}, {std::exp(2.0f)})).item(), 2.0f, 1e-5);
  EXPECT_FLOAT_EQ(Sqrt(T({1}, {9})).item(), 3.0f);
}

TEST(ReductionTest, SumAllMeanAll) {
  Tensor a = T({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(SumAll(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).item(), 2.5f);
  EXPECT_FLOAT_EQ(MaxAll(a), 4.0f);
  EXPECT_FLOAT_EQ(MinAll(a), 1.0f);
}

TEST(ReductionTest, SumAlongAxis) {
  Tensor a = T({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor rows = Sum(a, 1);
  EXPECT_EQ(rows.shape(), Shape({2}));
  EXPECT_EQ(rows.ToVector(), (std::vector<float>{6, 15}));
  Tensor cols = Sum(a, 0, /*keepdim=*/true);
  EXPECT_EQ(cols.shape(), Shape({1, 3}));
  EXPECT_EQ(cols.ToVector(), (std::vector<float>{5, 7, 9}));
}

// Sum's reference, element by element: each output is one double summed
// over the reduced axis in ascending order.
std::vector<float> ReferenceSum(const Tensor& a, int axis) {
  const std::vector<int64_t>& dims = a.shape().dims();
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= dims[i];
  for (int i = axis + 1; i < a.rank(); ++i) inner *= dims[i];
  const int64_t mid = dims[axis];
  std::vector<float> out(static_cast<size_t>(outer * inner));
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t in = 0; in < inner; ++in) {
      double acc = 0.0;
      for (int64_t m = 0; m < mid; ++m) {
        acc += a.data()[(o * mid + m) * inner + in];
      }
      out[o * inner + in] = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(ReductionTest, SumMatchesPerElementReferenceBitwise) {
  core::Rng rng(41);
  // [3, 5, 300] reduces rows wider than one accumulator block on axes 0
  // and 1; [4, 6, 5] reduces narrow rows on every axis; [R, 32] is the
  // model's bias-gradient sum at perfbench's geometry.
  for (const Shape& shape :
       {Shape{3, 5, 300}, Shape{4, 6, 5}, Shape{4 * 12 * 307, 32}}) {
    Tensor a = Tensor::RandomNormal(shape, rng);
    for (int axis : {0, 1, shape.rank() - 1}) {
      std::vector<float> want = ReferenceSum(a, axis);
      for (bool keepdim : {false, true}) {
        Tensor got = Sum(a, axis, keepdim);
        std::vector<int64_t> dims = shape.dims();
        if (keepdim) {
          dims[axis] = 1;
        } else {
          dims.erase(dims.begin() + axis);
        }
        ASSERT_EQ(got.shape(), Shape(dims));
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << shape.ToString() << " axis " << axis;
      }
    }
  }
}

TEST(ReductionTest, MeanAndMaxAlongAxis) {
  Tensor a = T({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(Mean(a, 1).ToVector(), (std::vector<float>{2, 5}));
  EXPECT_EQ(Max(a, 0).ToVector(), (std::vector<float>{4, 5, 6}));
  EXPECT_EQ(Max(a, -1).ToVector(), (std::vector<float>{3, 6}));
}

TEST(ReductionTest, ReduceToShapeSumsBroadcastAxes) {
  Tensor grad = Tensor::Ones(Shape{2, 3, 4});
  Tensor r1 = ReduceToShape(grad, Shape{4});
  EXPECT_EQ(r1.ToVector(), (std::vector<float>{6, 6, 6, 6}));
  Tensor r2 = ReduceToShape(grad, Shape{2, 1, 4});
  EXPECT_EQ(r2.shape(), Shape({2, 1, 4}));
  EXPECT_EQ(r2.ToVector()[0], 3.0f);
  Tensor r3 = ReduceToShape(grad, Shape{2, 3, 4});
  EXPECT_TRUE(AllClose(r3, grad));
}

TEST(MovementTest, Transpose2D) {
  Tensor a = T({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor at = Transpose(a);
  EXPECT_EQ(at.shape(), Shape({3, 2}));
  EXPECT_EQ(at.ToVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(MovementTest, PermuteMatchesManualIndexing) {
  core::Rng rng(3);
  Tensor a = Tensor::RandomNormal(Shape{2, 3, 4, 5}, rng);
  Tensor p = Permute(a, {0, 2, 1, 3});  // exercises the memcpy fast path
  for (int64_t i = 0; i < 2; ++i)
    for (int64_t j = 0; j < 3; ++j)
      for (int64_t k = 0; k < 4; ++k)
        for (int64_t l = 0; l < 5; ++l)
          EXPECT_EQ(p.at({i, k, j, l}), a.at({i, j, k, l}));
}

TEST(MovementTest, PermuteLastAxisMoved) {
  core::Rng rng(4);
  Tensor a = Tensor::RandomNormal(Shape{3, 4, 5}, rng);
  Tensor p = Permute(a, {2, 0, 1});  // exercises the general odometer path
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 4; ++j)
      for (int64_t k = 0; k < 5; ++k)
        EXPECT_EQ(p.at({k, i, j}), a.at({i, j, k}));
}

TEST(MovementTest, PermuteRoundTrip) {
  core::Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape{2, 3, 4}, rng);
  Tensor back = Permute(Permute(a, {1, 2, 0}), {2, 0, 1});
  EXPECT_TRUE(AllClose(a, back));
}

TEST(MovementTest, ConcatAxis0And1) {
  Tensor a = T({1, 2}, {1, 2});
  Tensor b = T({1, 2}, {3, 4});
  Tensor c0 = Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), Shape({2, 2}));
  EXPECT_EQ(c0.ToVector(), (std::vector<float>{1, 2, 3, 4}));
  Tensor c1 = Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), Shape({1, 4}));
  EXPECT_EQ(c1.ToVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(MovementTest, ConcatNegativeAxis) {
  Tensor a = T({2, 1}, {1, 2});
  Tensor b = T({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, -1);
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
}

TEST(MovementTest, SliceMiddleAxis) {
  Tensor a = T({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor s = Slice(a, 1, 1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{2, 3, 6, 7}));
}

TEST(MovementTest, SliceConcatRoundTrip) {
  core::Rng rng(6);
  Tensor a = Tensor::RandomNormal(Shape{3, 5, 2}, rng);
  Tensor parts = Concat({Slice(a, 1, 0, 2), Slice(a, 1, 2, 3)}, 1);
  EXPECT_TRUE(AllClose(a, parts));
}

TEST(MovementTest, RepeatAxis) {
  Tensor a = T({1, 2}, {1, 2});
  Tensor r = RepeatAxis(a, 0, 3);
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  EXPECT_EQ(r.ToVector(), (std::vector<float>{1, 2, 1, 2, 1, 2}));
}

TEST(SoftmaxTest, RowsSumToOne) {
  core::Rng rng(8);
  Tensor a = Tensor::RandomNormal(Shape{4, 7}, rng, 0.0f, 3.0f);
  Tensor s = Softmax(a);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 7; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(SoftmaxTest, NumericallyStableForLargeInputs) {
  Tensor a = T({1, 3}, {1000, 1000, 1000});
  Tensor s = Softmax(a);
  EXPECT_FALSE(HasNonFinite(s));
  EXPECT_NEAR(s.at({0, 0}), 1.0f / 3.0f, 1e-5);
}

TEST(SoftmaxTest, MaskExcludesKeys) {
  Tensor a = T({1, 3}, {1, 2, 3});
  Tensor mask = T({1, 3}, {0, -1e9f, 0});
  Tensor s = Softmax(Add(a, mask));
  EXPECT_NEAR(s.at({0, 1}), 0.0f, 1e-6);
  EXPECT_NEAR(s.at({0, 0}) + s.at({0, 2}), 1.0f, 1e-5);
}

TEST(SoftmaxTest, FullyMaskedRowDegradesToUniform) {
  Tensor a = T({1, 4}, {1, 2, 3, 4});
  Tensor mask = Tensor::Full(Shape{1, 4}, -1e9f);
  Tensor s = Softmax(Add(a, mask));
  EXPECT_FALSE(HasNonFinite(s));
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(s.at({0, c}), 0.25f, 1e-4);
}

TEST(PredicateTest, AllClose) {
  Tensor a = T({2}, {1.0f, 2.0f});
  Tensor b = T({2}, {1.0f + 1e-7f, 2.0f});
  EXPECT_TRUE(AllClose(a, b));
  EXPECT_FALSE(AllClose(a, T({2}, {1.1f, 2.0f})));
  EXPECT_FALSE(AllClose(a, T({1, 2}, {1.0f, 2.0f})));  // shape mismatch
}

TEST(PredicateTest, HasNonFinite) {
  Tensor a = T({2}, {1.0f, 2.0f});
  EXPECT_FALSE(HasNonFinite(a));
  a.data()[1] = std::nanf("");
  EXPECT_TRUE(HasNonFinite(a));
  a.data()[1] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(HasNonFinite(a));
}

}  // namespace
}  // namespace sstban::tensor
