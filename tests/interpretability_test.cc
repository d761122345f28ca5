// Tests for the grads-off attention-probability helpers used by the
// reference-point (cluster-center) analysis.

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/rng.h"
#include "nn/attention.h"
#include "sstban/bottleneck_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

t::Tensor Rand(t::Shape shape, uint64_t seed) {
  core::Rng rng(seed);
  return t::Tensor::RandomNormal(std::move(shape), rng, 0.0f, 0.8f);
}

TEST(AttentionProbsTest, ShapeAndNormalization) {
  core::Rng rng(1);
  nn::MultiHeadAttention mha(6, 6, 6, 2, rng);
  ag::Variable q(Rand({2, 4, 6}, 2));
  ag::Variable kv(Rand({2, 7, 6}, 3));
  t::Tensor probs = mha.AttentionProbs(q, kv);
  ASSERT_EQ(probs.shape(), t::Shape({2, 4, 7}));
  // Head-averaged rows still sum to 1 (each head's row sums to 1).
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t i = 0; i < 4; ++i) {
      double row = 0;
      for (int64_t j = 0; j < 7; ++j) row += probs.at({b, i, j});
      EXPECT_NEAR(row, 1.0, 1e-5);
    }
  }
}

TEST(AttentionProbsTest, MaskedKeysGetZeroProbability) {
  core::Rng rng(4);
  nn::MultiHeadAttention mha(4, 4, 4, 2, rng);
  ag::Variable q(Rand({1, 3, 4}, 5));
  ag::Variable kv(Rand({1, 5, 4}, 6));
  t::Tensor mask = t::Tensor::Ones(t::Shape{1, 5});
  mask.at({0, 1}) = 0.0f;
  mask.at({0, 4}) = 0.0f;
  t::Tensor probs = mha.AttentionProbs(q, kv, &mask);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(probs.at({0, i, 1}), 0.0f, 1e-6);
    EXPECT_NEAR(probs.at({0, i, 4}), 0.0f, 1e-6);
  }
}

// The unfused chain's probabilities on the module's own projections: head
// split, scores, scale, mask, softmax, then the mean over heads.
TEST(AttentionProbsTest, MatchesHeadAveragedReferenceChain) {
  core::Rng rng(7);
  const int64_t batch = 2, lq = 3, lk = 5, dim = 4, heads = 2, dk = 2;
  nn::MultiHeadAttention mha(dim, dim, dim, heads, rng);
  t::Tensor q = Rand({batch, lq, dim}, 8);
  t::Tensor kv = Rand({batch, lk, dim}, 9);
  t::Tensor mask = t::Tensor::Ones(t::Shape{batch, lk});
  mask.at({0, 2}) = 0.0f;
  for (int64_t j = 0; j < lk; ++j) mask.at({1, j}) = 0.0f;  // fully masked

  t::Tensor wq, wk;
  for (const auto& [name, param] : mha.NamedParameters()) {
    if (name == "wq.weight") wq = param.value();
    if (name == "wk.weight") wk = param.value();
  }
  ASSERT_TRUE(wq.defined() && wk.defined());
  auto split_heads = [&](const t::Tensor& x, const t::Tensor& w) {
    const int64_t len = x.dim(1);
    t::Tensor p = t::Matmul(x.Reshape(t::Shape{batch * len, dim}), w);
    return t::Permute(p.Reshape(t::Shape{batch, len, heads, dk}), {0, 2, 1, 3})
        .Reshape(t::Shape{batch * heads, len, dk});
  };
  t::Tensor scores = t::MulScalar(
      t::Bmm(split_heads(q, wq), split_heads(kv, wk), false, true),
      1.0f / std::sqrt(static_cast<float>(dk)));
  t::Tensor additive = t::Tensor::Empty(scores.shape());
  for (int64_t r = 0; r < batch * heads * lq; ++r) {
    for (int64_t j = 0; j < lk; ++j) {
      additive.data()[r * lk + j] =
          mask.at({r / (heads * lq), j}) > 0.5f ? 0.0f : -1e9f;
    }
  }
  t::Tensor per_head = t::Softmax(t::Add(scores, additive))
                           .Reshape(t::Shape{batch, heads, lq, lk});
  t::Tensor reference = t::Mean(per_head, 1);

  t::Tensor probs =
      mha.AttentionProbs(ag::Variable(q), ag::Variable(kv), &mask);
  EXPECT_TRUE(t::AllClose(probs, reference, 0, 0));
}

TEST(BottleneckAssignmentTest, ShapeMatchesReferenceCount) {
  core::Rng rng(9);
  sstban::BottleneckAttention attn(6, 4, 3, 2, rng);
  ag::Variable x(Rand({2, 10, 6}, 10));
  t::Tensor assignments = attn.Assignments(x);
  ASSERT_EQ(assignments.shape(), t::Shape({2, 10, 3}));
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t i = 0; i < 10; ++i) {
      double row = 0;
      for (int64_t r = 0; r < 3; ++r) row += assignments.at({b, i, r});
      EXPECT_NEAR(row, 1.0, 1e-5);
    }
  }
}

}  // namespace
}  // namespace sstban
