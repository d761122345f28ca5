#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/rng.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace sstban::optim {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

// Minimizes ||x - target||^2 with the given optimizer; returns final loss.
template <typename Opt, typename... Args>
float MinimizeQuadratic(int steps, float lr, Args... args) {
  ag::Variable x(t::Tensor::Full(t::Shape{4}, 5.0f), true);
  t::Tensor target = t::Tensor::FromVector(t::Shape{4}, {1, -2, 0.5, 3});
  Opt opt({x}, lr, args...);
  float loss_value = 0;
  for (int i = 0; i < steps; ++i) {
    ag::Variable loss = ag::MseLoss(x, ag::Variable(target));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    loss_value = loss.item();
  }
  return loss_value;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Adam>(400, 0.05f), 1e-3f);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  ag::Variable used(t::Tensor::Full(t::Shape{1}, 1.0f), true);
  ag::Variable unused(t::Tensor::Full(t::Shape{1}, 7.0f), true);
  Adam opt({used, unused}, 0.1f);
  ag::Variable loss = ag::SumAll(ag::Square(used));
  loss.Backward();
  opt.Step();
  EXPECT_FLOAT_EQ(unused.value().item(), 7.0f);
  EXPECT_NE(used.value().item(), 1.0f);
}

TEST(ClipGradNormTest, ScalesLargeGradients) {
  ag::Variable x(t::Tensor::Full(t::Shape{4}, 10.0f), true);
  ag::SumAll(ag::Square(x)).Backward();  // grad = 20 each, norm = 40
  float norm = ClipGradNorm({x}, 1.0f);
  EXPECT_NEAR(norm, 40.0f, 1e-3f);
  double clipped_sq = 0;
  for (int64_t i = 0; i < 4; ++i) {
    clipped_sq += x.grad().data()[i] * x.grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(clipped_sq), 1.0f, 1e-4f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  ag::Variable x(t::Tensor::Full(t::Shape{2}, 0.01f), true);
  ag::SumAll(ag::Square(x)).Backward();
  float before = x.grad().data()[0];
  ClipGradNorm({x}, 10.0f);
  EXPECT_FLOAT_EQ(x.grad().data()[0], before);
}

TEST(ClipGradNormTest, SiblingLeavesAreScaledOnceEach) {
  // Add hands both operands the same incoming tensor; each leaf keeps a
  // private copy, so clipping cannot scale one buffer twice.
  ag::Variable a(t::Tensor::Full(t::Shape{4}, 1.0f), true);
  ag::Variable b(t::Tensor::Full(t::Shape{4}, 2.0f), true);
  ag::MulScalar(ag::SumAll(ag::Add(a, b)), 3.0f).Backward();  // grad 3 each
  ASSERT_NE(a.grad().data(), b.grad().data());
  float norm = ClipGradNorm({a, b}, 1.0f);
  EXPECT_NEAR(norm, std::sqrt(72.0f), 1e-4f);
  const float expected = 3.0f * (1.0f / norm);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a.grad().data()[i], expected);
    EXPECT_FLOAT_EQ(b.grad().data()[i], expected);
  }
  a.ZeroGrad();
  EXPECT_FALSE(a.has_grad());
  ASSERT_TRUE(b.has_grad());
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(b.grad().data()[i], expected);
}

TEST(EarlyStoppingTest, StopsAfterPatienceEpochs) {
  EarlyStopping early(3);
  EXPECT_FALSE(early.Update(1.0f));  // improvement
  EXPECT_FALSE(early.Update(2.0f));  // stale 1
  EXPECT_FALSE(early.Update(2.0f));  // stale 2
  EXPECT_TRUE(early.Update(2.0f));   // stale 3 -> stop
}

TEST(EarlyStoppingTest, ImprovementResetsCounter) {
  EarlyStopping early(2);
  EXPECT_FALSE(early.Update(1.0f));
  EXPECT_FALSE(early.Update(1.5f));
  EXPECT_FALSE(early.Update(0.5f));  // improvement resets
  EXPECT_TRUE(early.improved_last_update());
  EXPECT_FLOAT_EQ(early.best_metric(), 0.5f);
  EXPECT_FALSE(early.Update(0.9f));
  EXPECT_TRUE(early.Update(0.9f));
}

}  // namespace
}  // namespace sstban::optim
