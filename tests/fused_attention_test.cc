// Differential tests for the fused attention kernel (tensor/fused_attention.h)
// and its integrations: the raw kernel vs the unfused
// Bmm -> MulScalar -> (+mask) -> Softmax -> Bmm chain, the autograd op's
// recompute backward vs the unfused tape gradients, and a whole model's
// forecast with grads off (fused kernel) vs grads on (unfused chain).
//
// Tolerance policy (DESIGN.md §14): with lk <= kFusedAttentionExactMaxKeys
// the fused kernel runs the exact two-pass mode and must match the unfused
// chain BIT FOR BIT; above that it switches to the flash-style online softmax,
// which reorders the denominator sum and is held to a relative tolerance
// instead — but each mode is bitwise deterministic across thread counts.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/tensor.h"
#include "training/forecast_service.h"

namespace sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

// The additive mask the tape path builds: [batch, lq, lk] rows of
// keep ? 0 : -1e9, expanded from [batch / mask_heads, lk] keep rows.
t::Tensor AdditiveMask(const t::Tensor& keep, int64_t batch, int64_t heads,
                       int64_t lq, int64_t lk) {
  t::Tensor additive = t::Tensor::Empty(t::Shape{batch, lq, lk});
  float* pa = additive.data();
  const float* pm = keep.data();
  for (int64_t r = 0; r < batch * lq; ++r) {
    const float* mrow = pm + (r / (heads * lq)) * lk;
    for (int64_t j = 0; j < lk; ++j) {
      pa[r * lk + j] = mrow[j] > 0.5f ? 0.0f : -1e9f;
    }
  }
  return additive;
}

// The unfused reference chain, on the very kernels the tape uses.
t::Tensor UnfusedAttention(const t::Tensor& q, const t::Tensor& k,
                           const t::Tensor& v, const t::Tensor* keep,
                           int64_t mask_heads, float scale) {
  t::Tensor scores = t::MulScalar(t::Bmm(q, k, false, true), scale);
  if (keep != nullptr) {
    scores = t::Add(scores, AdditiveMask(*keep, q.dim(0), mask_heads,
                                         q.dim(1), k.dim(1)));
  }
  return t::Bmm(t::Softmax(scores), v, false, false);
}

t::Tensor MakeKeep(int64_t rows, int64_t lk, uint64_t seed) {
  core::Rng rng(seed);
  t::Tensor keep = t::Tensor::Ones(t::Shape{rows, lk});
  for (int64_t i = 0; i < keep.size(); ++i) {
    if (rng.NextDouble() < 0.3) keep.data()[i] = 0.0f;
  }
  keep.data()[0] = 1.0f;  // never a fully-masked first row
  return keep;
}

void ExpectBitwise(const t::Tensor& a, const t::Tensor& b,
                   const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << what;
}

// -- Exact mode: bitwise vs the unfused chain --------------------------------

TEST(FusedAttentionTest, ExactModeMatchesUnfusedChainBitwise) {
  struct Case { int64_t batch, lq, lk, dk, heads; bool masked; };
  const std::vector<Case> cases = {
      {1, 1, 1, 1, 1, false},   {2, 5, 7, 3, 1, false},
      {4, 16, 16, 8, 2, true},  {6, 64, 33, 4, 3, true},
      {2, 130, 65, 8, 2, true}, {1, 48, 512, 8, 1, false},
      {2, 3, 512, 4, 2, true},
  };
  core::Rng rng(3);
  for (const Case& c : cases) {
    SCOPED_TRACE("b=" + std::to_string(c.batch) + " lq=" +
                 std::to_string(c.lq) + " lk=" + std::to_string(c.lk) +
                 " dk=" + std::to_string(c.dk) +
                 (c.masked ? " masked" : ""));
    ASSERT_LE(c.lk, t::kFusedAttentionExactMaxKeys);
    t::Tensor q = t::Tensor::RandomNormal(t::Shape{c.batch, c.lq, c.dk}, rng);
    t::Tensor k = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, c.dk}, rng);
    t::Tensor v = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, c.dk}, rng);
    t::Tensor keep;
    if (c.masked) keep = MakeKeep(c.batch / c.heads, c.lk, 7 + c.batch);
    const t::Tensor* keep_ptr = c.masked ? &keep : nullptr;
    float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
    t::Tensor fused = t::FusedAttention(q, k, v, keep_ptr, c.heads, scale);
    t::Tensor unfused = UnfusedAttention(q, k, v, keep_ptr, c.heads, scale);
    ExpectBitwise(fused, unfused, "fused vs unfused");
  }
}

// -- Online-softmax mode: documented tolerance, never bitwise drift ----------

TEST(FusedAttentionTest, OnlineModeMatchesUnfusedWithinTolerance) {
  core::Rng rng(9);
  const int64_t batch = 2, lq = 8, lk = 700, dk = 8;  // lk > exact cutoff
  ASSERT_GT(lk, t::kFusedAttentionExactMaxKeys);
  t::Tensor q = t::Tensor::RandomNormal(t::Shape{batch, lq, dk}, rng);
  t::Tensor k = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor v = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor keep = MakeKeep(batch, lk, 31);
  float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  for (const t::Tensor* keep_ptr :
       std::vector<const t::Tensor*>{nullptr, &keep}) {
    SCOPED_TRACE(keep_ptr ? "masked" : "unmasked");
    t::Tensor fused = t::FusedAttention(q, k, v, keep_ptr, 1, scale);
    t::Tensor unfused = UnfusedAttention(q, k, v, keep_ptr, 1, scale);
    // Online softmax reorders the denominator accumulation (double-precision
    // running sum over key blocks); outputs are convex combinations of V, so
    // absolute error is what matters. 1e-5 is ~100x the observed drift.
    EXPECT_TRUE(t::AllClose(fused, unfused, /*atol=*/1e-5f, /*rtol=*/1e-4f));
    // ...but never bitwise-random: the same call twice is identical.
    ExpectBitwise(fused, t::FusedAttention(q, k, v, keep_ptr, 1, scale),
                  "run-to-run");
  }
}

TEST(FusedAttentionTest, BothModesAreBitwiseDeterministicOneVsEightThreads) {
  core::Rng rng(21);
  for (int64_t lk : {48, 512, 700}) {
    SCOPED_TRACE("lk=" + std::to_string(lk));
    const int64_t batch = 4, lq = 70, dk = 8;
    t::Tensor q = t::Tensor::RandomNormal(t::Shape{batch, lq, dk}, rng);
    t::Tensor k = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
    t::Tensor v = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
    t::Tensor keep = MakeKeep(batch / 2, lk, 5);
    core::SetParallelismCapForTesting(1);
    t::Tensor seq = t::FusedAttention(q, k, v, &keep, 2, 0.25f);
    core::SetParallelismCapForTesting(8);
    t::Tensor par = t::FusedAttention(q, k, v, &keep, 2, 0.25f);
    core::SetParallelismCapForTesting(0);
    ExpectBitwise(seq, par, "1 vs 8 threads");
  }
}

// -- Autograd: the recompute backward vs the unfused tape gradients ----------

TEST(FusedAttentionTest, BackwardMatchesUnfusedChainGradients) {
  core::Rng rng(33);
  const int64_t batch = 2, lq = 6, lk = 9, dk = 4, heads = 1;
  t::Tensor qv = t::Tensor::RandomNormal(t::Shape{batch, lq, dk}, rng);
  t::Tensor kv = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor vv = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor keep = MakeKeep(batch, lk, 13);
  float scale = 0.5f;

  for (const t::Tensor* keep_ptr :
       std::vector<const t::Tensor*>{nullptr, &keep}) {
    SCOPED_TRACE(keep_ptr ? "masked" : "unmasked");
    // Fused op.
    ag::Variable q1(qv.Clone(), /*requires_grad=*/true);
    ag::Variable k1(kv.Clone(), /*requires_grad=*/true);
    ag::Variable v1(vv.Clone(), /*requires_grad=*/true);
    ag::Variable out1 = ag::FusedAttention(q1, k1, v1, keep_ptr, heads, scale);
    ag::MeanAll(ag::Square(out1)).Backward();

    // Unfused chain.
    ag::Variable q2(qv.Clone(), /*requires_grad=*/true);
    ag::Variable k2(kv.Clone(), /*requires_grad=*/true);
    ag::Variable v2(vv.Clone(), /*requires_grad=*/true);
    ag::Variable scores = ag::MulScalar(ag::Bmm(q2, k2, false, true), scale);
    ag::Variable probs =
        keep_ptr ? ag::SoftmaxWithMask(
                       scores, AdditiveMask(*keep_ptr, batch, heads, lq, lk))
                 : ag::Softmax(scores);
    ag::Variable out2 = ag::Bmm(probs, v2);
    ag::MeanAll(ag::Square(out2)).Backward();

    // Forward agrees bitwise (exact mode), gradients to rounding: the
    // recompute backward contracts the same sums in a different order.
    ExpectBitwise(out1.value(), out2.value(), "forward");
    EXPECT_TRUE(t::AllClose(q1.grad(), q2.grad(), 1e-5f, 1e-4f));
    EXPECT_TRUE(t::AllClose(k1.grad(), k2.grad(), 1e-5f, 1e-4f));
    EXPECT_TRUE(t::AllClose(v1.grad(), v2.grad(), 1e-5f, 1e-4f));
  }
}

TEST(FusedAttentionTest, BackwardIsBitwiseDeterministicOneVsEightThreads) {
  core::Rng rng(41);
  const int64_t batch = 4, lq = 70, lk = 65, dk = 4;
  t::Tensor q = t::Tensor::RandomNormal(t::Shape{batch, lq, dk}, rng);
  t::Tensor k = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor v = t::Tensor::RandomNormal(t::Shape{batch, lk, dk}, rng);
  t::Tensor dout = t::Tensor::RandomNormal(t::Shape{batch, lq, dk}, rng);
  auto run = [&](int cap) {
    core::SetParallelismCapForTesting(cap);
    t::Tensor dq = t::Tensor::Empty(t::Shape{batch, lq, dk});
    t::Tensor dk_ = t::Tensor::Empty(t::Shape{batch, lk, dk});
    t::Tensor dv = t::Tensor::Empty(t::Shape{batch, lk, dk});
    t::FusedAttentionBackward(q.data(), k.data(), v.data(), nullptr, 1,
                              dout.data(), dq.data(), dk_.data(), dv.data(),
                              batch, lq, lk, dk, 0.5f);
    core::SetParallelismCapForTesting(0);
    return std::vector<t::Tensor>{dq, dk_, dv};
  };
  std::vector<t::Tensor> seq = run(1);
  std::vector<t::Tensor> par = run(8);
  for (size_t i = 0; i < seq.size(); ++i) {
    ExpectBitwise(seq[i], par[i], "grad " + std::to_string(i));
  }
}

// -- Model level: grads off (fused kernel) vs grads on (unfused chain) ------

model_ns::SstbanConfig ModelConfig(int64_t nodes, bool use_bottleneck) {
  model_ns::SstbanConfig config;
  config.num_nodes = nodes;
  config.input_len = 4;
  config.output_len = 4;
  config.num_features = 1;
  config.steps_per_day = 8;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.temporal_refs = 2;
  config.spatial_refs = 2;
  config.patch_len = 2;
  config.use_bottleneck = use_bottleneck;
  config.self_supervised = false;
  config.seed = 19;
  return config;
}

data::Batch ModelBatch(int64_t b, const model_ns::SstbanConfig& c,
                       uint64_t seed) {
  core::Rng rng(seed);
  data::Batch batch;
  batch.x = t::Tensor::RandomUniform(
      t::Shape{b, c.input_len, c.num_nodes, c.num_features}, rng, -1.f, 1.f);
  batch.y = t::Tensor::Zeros(t::Shape{b, c.output_len, c.num_nodes, 1});
  for (int64_t i = 0; i < b; ++i) {
    training::AppendCalendarFeatures(/*first_step=*/2 + 3 * i, c.input_len,
                                     c.output_len, c.steps_per_day, &batch);
  }
  return batch;
}

// MultiHeadAttention runs the fused kernel when grads are off and no
// probabilities are requested, and the unfused chain otherwise. At these
// key counts the fused kernel is in its exact mode, so a forecast must not
// depend on whether the caller holds a NoGradGuard: Predict and
// PredictMasked with grads on must equal the same calls under NoGradGuard
// bit for bit, masked and clean, at 1 and 8 threads. N = 100 puts the
// spatial query rows across a 64-row block boundary; the full-attention
// variant makes lq = lk = N.
TEST(FusedAttentionModelTest, GradOffForwardMatchesGradOnForwardBitwise) {
  struct Case {
    int64_t nodes;
    bool use_bottleneck;
  };
  for (const Case& c : {Case{4, true}, Case{100, true}, Case{100, false}}) {
    model_ns::SstbanConfig config = ModelConfig(c.nodes, c.use_bottleneck);
    model_ns::SstbanModel model(config);
    model.SetTraining(false);
    data::Batch batch = ModelBatch(2, config, /*seed=*/77);
    t::Tensor keep = t::Tensor::Ones(t::Shape{2, config.input_len, c.nodes});
    for (int64_t i = 0; i < keep.size(); i += 3) keep.data()[i] = 0.0f;
    keep.data()[0] = 1.0f;
    for (int cap : {1, 8}) {
      core::SetParallelismCapForTesting(cap);
      for (bool masked : {false, true}) {
        SCOPED_TRACE("N=" + std::to_string(c.nodes) +
                     (c.use_bottleneck ? " stba" : " full") +
                     (masked ? " masked" : " clean") +
                     " cap=" + std::to_string(cap));
        auto forward = [&] {
          return masked ? model.PredictMasked(batch.x, keep, batch).value()
                        : model.Predict(batch.x, batch).value();
        };
        t::Tensor unfused = forward();
        t::Tensor fused;
        {
          ag::NoGradGuard no_grad;
          fused = forward();
        }
        ExpectBitwise(fused, unfused, "grads off vs grads on");
      }
    }
  }
  core::SetParallelismCapForTesting(0);
}

}  // namespace
}  // namespace sstban
