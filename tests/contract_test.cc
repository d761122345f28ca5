// Contract (failure-injection) tests: programming errors must trip a CHECK
// and abort with a diagnostic rather than silently corrupting state. Uses
// gtest death tests, so each case runs in a forked child.

#include <memory>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/synthetic_world.h"
#include "sstban/config.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, ShapeDimOutOfRange) {
  t::Shape s{2, 3};
  EXPECT_DEATH(s.dim(2), "CHECK failed");
  EXPECT_DEATH(s.dim(-3), "CHECK failed");
}

TEST(ContractDeathTest, BroadcastIncompatibleShapes) {
  EXPECT_DEATH(t::BroadcastShapes(t::Shape{2, 3}, t::Shape{2, 4}),
               "cannot broadcast");
}

TEST(ContractDeathTest, TensorIndexOutOfBounds) {
  t::Tensor x = t::Tensor::Zeros(t::Shape{2, 2});
  EXPECT_DEATH(x.at({2, 0}), "out of bounds");
  EXPECT_DEATH(x.at({0}), "CHECK failed");  // wrong rank
}

TEST(ContractDeathTest, ReshapeElementCountMismatch) {
  t::Tensor x = t::Tensor::Zeros(t::Shape{2, 3});
  EXPECT_DEATH(x.Reshape(t::Shape{7}), "cannot reshape");
}

TEST(ContractDeathTest, MatmulInnerDimMismatch) {
  t::Tensor a = t::Tensor::Zeros(t::Shape{2, 3});
  t::Tensor b = t::Tensor::Zeros(t::Shape{4, 2});
  EXPECT_DEATH(t::Matmul(a, b), "matmul inner dims");
}

TEST(ContractDeathTest, BmmBatchMismatch) {
  t::Tensor a = t::Tensor::Zeros(t::Shape{2, 3, 4});
  t::Tensor b = t::Tensor::Zeros(t::Shape{3, 4, 5});
  EXPECT_DEATH(t::Bmm(a, b), "CHECK failed");
}

TEST(ContractDeathTest, SliceOutOfRange) {
  t::Tensor x = t::Tensor::Zeros(t::Shape{4});
  EXPECT_DEATH(t::Slice(x, 0, 2, 5), "out of range");
}

TEST(ContractDeathTest, ConcatRankMismatch) {
  t::Tensor a = t::Tensor::Zeros(t::Shape{2, 2});
  t::Tensor b = t::Tensor::Zeros(t::Shape{2, 3});
  EXPECT_DEATH(t::Concat({a, b}, 0), "CHECK failed");
}

TEST(ContractDeathTest, BackwardRequiresScalar) {
  ag::Variable x(t::Tensor::Zeros(t::Shape{3}), true);
  ag::Variable y = ag::Square(x);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(ContractDeathTest, GradAccessWithoutBackward) {
  ag::Variable x(t::Tensor::Zeros(t::Shape{3}), true);
  EXPECT_DEATH(x.grad(), "no gradient");
}

TEST(ContractDeathTest, SharedGradientRefusesInPlaceWrite) {
  ag::Variable x(t::Tensor::Ones(t::Shape{3}), true);
  ag::SumAll(ag::Square(x)).Backward();
  t::Tensor alias = x.grad();
  EXPECT_DEATH(x.mutable_grad(), "shares its storage");
}

TEST(ContractDeathTest, EmbeddingIndexOutOfRange) {
  ag::Variable weight(t::Tensor::Zeros(t::Shape{3, 2}), true);
  EXPECT_DEATH(ag::EmbeddingLookup(weight, {5}), "out of range");
}

TEST(ContractDeathTest, Conv1dInputTooShortForDilation) {
  ag::Variable x(t::Tensor::Zeros(t::Shape{1, 3, 1}));
  ag::Variable w(t::Tensor::Zeros(t::Shape{2, 1, 1}));
  EXPECT_DEATH(ag::Conv1dTime(x, w, ag::Variable(), /*dilation=*/4),
               "input too short");
}

TEST(ContractDeathTest, WindowDatasetTooShort) {
  data::SyntheticWorldConfig config;
  config.num_nodes = 2;
  config.num_corridors = 1;
  config.steps_per_day = 4;
  config.num_days = 1;
  auto ds = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(config));
  EXPECT_DEATH(data::WindowDataset(ds, 8, 8), "dataset too short");
}

TEST(ContractDeathTest, UnknownTableIiiScenario) {
  EXPECT_DEATH(sstban::TableIiiConfig("metro-99"), "unknown Table III scenario");
}

}  // namespace
}  // namespace sstban
