// Differential tests for the fused attention kernel (tensor/fused_attention.h)
// and its integrations: the raw kernel vs the unfused
// Bmm -> MulScalar -> Add(mask) -> Softmax -> Bmm chain, on contiguous
// single-head operands and on the projections' [B, L, h*dk] layout (every
// attention form and the row-block path, on every SIMD tier the host has),
// the autograd op's recompute backward vs the unfused tape gradients, an
// excluded key's exactly-zero weight and a NaN key's reach, and a whole
// model's forecast with grads on vs off.
//
// Tolerance policy (DESIGN.md §14): the forward must match the unfused chain
// BIT FOR BIT at every shape, lk > 512 included. The recompute backward
// contracts the same sums in a different order, so its gradients are held to
// 1e-5 absolute / 1e-4 relative against the chain's.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/cpu_features.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "simd_tiers.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels.h"
#include "tensor/tensor.h"
#include "training/forecast_service.h"

namespace sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;
using ::sstban::testing::AvailableLevels;
using ::sstban::testing::ScopedSimdLevel;

// The additive mask the unfused chain adds: [batch, lq, lk] rows of
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

std::string TierName() { return t::simd::Kernels().name; }

// [b, L, h*dk] -> [b*h, L, dk], the unfused path's head split, and back.
t::Tensor SplitHeads(const t::Tensor& x, int64_t heads) {
  int64_t b = x.dim(0), len = x.dim(1), dk = x.dim(2) / heads;
  return t::Permute(x.Reshape(t::Shape{b, len, heads, dk}), {0, 2, 1, 3})
      .Reshape(t::Shape{b * heads, len, dk});
}
t::Tensor MergeHeads(const t::Tensor& x, int64_t heads) {
  int64_t b = x.dim(0) / heads, len = x.dim(1), dk = x.dim(2);
  return t::Permute(x.Reshape(t::Shape{b, heads, len, dk}), {0, 2, 1, 3})
      .Reshape(t::Shape{b, len, heads * dk});
}

// The unfused chain on the head-split copies of [B, L, h*dk] operands, with a
// batch-1 q first copied to every batch item.
t::Tensor UnfusedHeads(const t::Tensor& q, const t::Tensor& k,
                       const t::Tensor& v, const t::Tensor* keep,
                       int64_t heads, float scale) {
  t::Tensor qb = q.dim(0) == k.dim(0) ? q : t::RepeatAxis(q, 0, k.dim(0));
  return MergeHeads(UnfusedAttention(SplitHeads(qb, heads),
                                     SplitHeads(k, heads),
                                     SplitHeads(v, heads), keep, heads, scale),
                    heads);
}

t::Tensor FusedHeads(const t::Tensor& q, const t::Tensor& k,
                     const t::Tensor& v, const t::Tensor* keep, int64_t heads,
                     float scale) {
  t::AttentionDims dims = t::FusedAttentionDims(q, k, v, keep, heads);
  t::Tensor out = t::Tensor::Empty(t::Shape{dims.batch, dims.lq, k.dim(2)});
  t::FusedAttentionInto(q.data(), k.data(), v.data(),
                        keep != nullptr ? keep->data() : nullptr, out.data(),
                        dims, scale);
  return out;
}

// One head-layout attention problem: K/V of `batch` items, Q of `batch` or
// (shared) 1 item, and a key mask whose last item excludes every key.
struct HeadProblem {
  t::Tensor q, k, v, keep;
};
HeadProblem MakeHeadProblem(int64_t batch, int64_t heads, int64_t lq,
                            int64_t lk, int64_t dk, bool shared_q,
                            core::Rng& rng) {
  const int64_t hd = heads * dk;
  HeadProblem p;
  p.q = t::Tensor::RandomNormal(t::Shape{shared_q ? 1 : batch, lq, hd}, rng);
  p.k = t::Tensor::RandomNormal(t::Shape{batch, lk, hd}, rng);
  p.v = t::Tensor::RandomNormal(t::Shape{batch, lk, hd}, rng);
  p.keep = MakeKeep(batch, lk, 3 + lq + lk);
  for (int64_t j = 0; j < lk; ++j) p.keep.data()[(batch - 1) * lk + j] = 0.0f;
  return p;
}

// -- Forward: bitwise vs the unfused chain ------------------------------------

TEST(FusedAttentionTest, ExactModeMatchesUnfusedChainBitwise) {
  struct Case { int64_t batch, lq, lk, dk, heads; bool masked; };
  const std::vector<Case> cases = {
      {1, 1, 1, 1, 1, false},   {2, 5, 7, 3, 1, false},
      {4, 16, 16, 8, 2, true},  {6, 64, 33, 4, 3, true},
      {2, 130, 65, 8, 2, true}, {1, 48, 512, 8, 1, false},
      {2, 3, 512, 4, 2, true},  {16, 3, 307, 4, 8, true},
      {16, 307, 3, 2, 8, true}, {24, 12, 3, 2, 8, false},
      {24, 12, 12, 2, 8, true}, {2, 8, 700, 8, 1, false},
      {2, 8, 700, 8, 1, true},
  };
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    core::Rng rng(3);
    for (const Case& c : cases) {
      SCOPED_TRACE(TierName() + " b=" + std::to_string(c.batch) + " lq=" +
                   std::to_string(c.lq) + " lk=" + std::to_string(c.lk) +
                   " dk=" + std::to_string(c.dk) +
                   (c.masked ? " masked" : ""));
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
}

// The projections' layout: every attention form and the row-block path,
// against the unfused chain on head-split copies, on every tier. lk straddles
// the broadcast form's 16-key limit, lq the absorb form's 8-query limit; each
// shape also runs with a batch-1 (shared) Q and with a key mask that excludes
// every key of one batch item. dk = 9 and 16 leave the forms' head_dim range,
// lk = 700 their key range.
TEST(FusedAttentionTest, HeadLayoutMatchesUnfusedChainBitwise) {
  struct Shape { int64_t heads, lq, lk, dk; };
  std::vector<Shape> shapes;
  for (int64_t heads : {1, 8}) {
    for (int64_t dk : {2, 4}) {
      for (int64_t lq : {1, 3, 8, 9, 307}) {
        for (int64_t lk : {1, 3, 8, 12, 16, 17}) {
          shapes.push_back({heads, lq, lk, dk});
        }
      }
    }
  }
  shapes.push_back({2, 3, 12, 9});
  shapes.push_back({2, 20, 3, 16});
  shapes.push_back({8, 3, 512, 4});
  shapes.push_back({8, 20, 700, 4});
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    core::Rng rng(17);
    for (const Shape& c : shapes) {
      const float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
      for (int variant = 0; variant < 3; ++variant) {
        const bool shared_q = variant == 2, masked = variant >= 1;
        SCOPED_TRACE(TierName() + " h=" + std::to_string(c.heads) +
                     " lq=" + std::to_string(c.lq) +
                     " lk=" + std::to_string(c.lk) +
                     " dk=" + std::to_string(c.dk) +
                     (masked ? " masked" : "") + (shared_q ? " shared-q" : ""));
        HeadProblem p =
            MakeHeadProblem(2, c.heads, c.lq, c.lk, c.dk, shared_q, rng);
        const t::Tensor* keep = masked ? &p.keep : nullptr;
        ExpectBitwise(FusedHeads(p.q, p.k, p.v, keep, c.heads, scale),
                      UnfusedHeads(p.q, p.k, p.v, keep, c.heads, scale),
                      "fused vs unfused");
      }
    }
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
    if (keep_ptr != nullptr) {
      scores = ag::Add(scores, ag::Variable(AdditiveMask(*keep_ptr, batch,
                                                         heads, lq, lk)));
    }
    ag::Variable probs = ag::Softmax(scores);
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

// Gradients of q, k and v under loss = sum(out o dout), so that
// d(loss)/d(out) = dout.
struct Grads {
  t::Tensor q, k, v;
};

// Through the fused op's backward (a backward form where the shape has one).
Grads FusedGrads(const HeadProblem& p, const t::Tensor* keep, int64_t heads,
                 float scale, const t::Tensor& dout) {
  ag::Variable q(p.q.Clone(), true), k(p.k.Clone(), true), v(p.v.Clone(), true);
  ag::Variable out = ag::FusedAttention(q, k, v, keep, heads, scale);
  ag::SumAll(ag::Mul(out, ag::Variable(dout))).Backward();
  return {q.grad(), k.grad(), v.grad()};
}

// Through the unfused tape chain on head-split copies; a shared Q is first
// broadcast to every batch item.
Grads ChainGrads(const HeadProblem& p, const t::Tensor* keep, int64_t heads,
                 float scale, const t::Tensor& dout) {
  const int64_t batch = p.k.dim(0), lq = dout.dim(1), lk = p.k.dim(1);
  const int64_t dk = p.k.dim(2) / heads;
  ag::Variable q(p.q.Clone(), true), k(p.k.Clone(), true), v(p.v.Clone(), true);
  ag::Variable qb = q;
  if (p.q.dim(0) != batch) {
    qb = ag::Add(q, ag::Variable(t::Tensor::Zeros(dout.shape())));
  }
  auto split = [&](const ag::Variable& x, int64_t len) {
    return ag::Reshape(
        ag::Permute(ag::Reshape(x, t::Shape{batch, len, heads, dk}),
                    {0, 2, 1, 3}),
        t::Shape{batch * heads, len, dk});
  };
  ag::Variable scores =
      ag::MulScalar(ag::Bmm(split(qb, lq), split(k, lk), false, true), scale);
  if (keep != nullptr) {
    scores = ag::Add(scores, ag::Variable(AdditiveMask(*keep, batch * heads,
                                                       heads, lq, lk)));
  }
  ag::Variable ctx = ag::Bmm(ag::Softmax(scores), split(v, lk));
  ag::Variable out = ag::Reshape(
      ag::Permute(ag::Reshape(ctx, t::Shape{batch, heads, lq, dk}),
                  {0, 2, 1, 3}),
      dout.shape());
  ag::SumAll(ag::Mul(out, ag::Variable(dout))).Backward();
  return {q.grad(), k.grad(), v.grad()};
}

// The layout-aware backward against the unfused tape chain, on every tier:
// gradients of [B, L, h*dk] operands (and of a shared batch-1 Q, summed over
// the batch), at both forms' boundaries (absorb: lq <= 8 over up to 512
// keys; broadcast: up to 16 keys), every head width a form takes, three
// heads (lane tails), and the formless neighbours (lq 9 over 17 keys,
// dk 9) on the row-block path. On the scalar tier every shape takes the
// row-block path. In the masked variants item 1 keeps one key: an item
// that keeps none is FullyMaskedItemPassesNoGradientToQueryOrKey's case.
TEST(FusedAttentionTest, HeadLayoutBackwardMatchesUnfusedChainGradients) {
  struct Shape { int64_t lq, lk, dk; };
  std::vector<Shape> shapes;
  for (int64_t dk : {1, 2, 4, 8}) {
    for (int64_t lq : {1, 8}) {
      for (int64_t lk : {9, 307, 512}) shapes.push_back({lq, lk, dk});
    }
    for (int64_t lk : {3, 16}) {
      for (int64_t lq : {12, 70, 307}) shapes.push_back({lq, lk, dk});
    }
  }
  shapes.push_back({9, 17, 2});
  shapes.push_back({3, 12, 9});
  const int64_t heads = 3, batch = 2;
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    core::Rng rng(34);
    for (const Shape& c : shapes) {
      const float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
      for (int variant = 0; variant < 3; ++variant) {
        const bool shared_q = variant == 2, masked = variant >= 1;
        SCOPED_TRACE(TierName() + " lq=" + std::to_string(c.lq) +
                     " lk=" + std::to_string(c.lk) +
                     " dk=" + std::to_string(c.dk) +
                     (masked ? " masked" : "") + (shared_q ? " shared-q" : ""));
        HeadProblem p =
            MakeHeadProblem(batch, heads, c.lq, c.lk, c.dk, shared_q, rng);
        p.keep.data()[c.lk + c.lk / 2] = 1.0f;  // item 1 keeps one key
        const t::Tensor* keep = masked ? &p.keep : nullptr;
        t::Tensor dout = t::Tensor::RandomNormal(
            t::Shape{batch, c.lq, heads * c.dk}, rng);
        Grads fused = FusedGrads(p, keep, heads, scale, dout);
        Grads chain = ChainGrads(p, keep, heads, scale, dout);
        EXPECT_TRUE(t::AllClose(fused.q, chain.q, 1e-5f, 1e-4f)) << "dQ";
        EXPECT_TRUE(t::AllClose(fused.k, chain.k, 1e-5f, 1e-4f)) << "dK";
        EXPECT_TRUE(t::AllClose(fused.v, chain.v, 1e-5f, 1e-4f)) << "dV";
      }
    }
  }
}

// A fully masked item's rows are uniform whatever its scores, so its Q and K
// get exactly no gradient; its V still gets P^T dOut. On every tier, through
// the absorb form (lq 3), the broadcast form (lq 70 over 9 keys) and the
// row-block path (lq 70 over 17 keys: two row blocks).
TEST(FusedAttentionTest, FullyMaskedItemPassesNoGradientToQueryOrKey) {
  const int64_t batch = 2, heads = 2, dk = 4, hd = heads * dk;
  struct Shape { int64_t lq, lk; };
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    core::Rng rng(35);
    for (const Shape& c : {Shape{3, 9}, Shape{70, 9}, Shape{70, 17}}) {
      SCOPED_TRACE(TierName() + " lq=" + std::to_string(c.lq) +
                   " lk=" + std::to_string(c.lk));
      const int64_t lq = c.lq, lk = c.lk;
      // Item 1 excludes every key.
      HeadProblem p = MakeHeadProblem(batch, heads, lq, lk, dk,
                                      /*shared_q=*/false, rng);
      t::AttentionDims dims =
          t::FusedAttentionDims(p.q, p.k, p.v, &p.keep, heads);
      t::Tensor dout = t::Tensor::RandomNormal(t::Shape{batch, lq, hd}, rng);
      t::Tensor dq = t::Tensor::Full(p.q.shape(), 7.0f);
      t::Tensor dkk = t::Tensor::Full(p.k.shape(), 7.0f);
      t::Tensor dv = t::Tensor::Empty(p.v.shape());
      t::FusedAttentionBackward(p.q.data(), p.k.data(), p.v.data(),
                                p.keep.data(), dout.data(), dq.data(),
                                dkk.data(), dv.data(), dims, 0.5f);
      auto item_is_zero = [](const t::Tensor& g, int64_t item) {
        const int64_t n = g.size() / g.dim(0);
        const float* pg = g.data() + item * n;
        return std::all_of(pg, pg + n, [](float x) { return x == 0.0f; });
      };
      EXPECT_FALSE(item_is_zero(dq, 0));
      EXPECT_FALSE(item_is_zero(dkk, 0));
      EXPECT_TRUE(item_is_zero(dq, 1));
      EXPECT_TRUE(item_is_zero(dkk, 1));
      // dV of item 1: every key gets the mean of dOut over the rows.
      for (int64_t col = 0; col < hd; ++col) {
        double sum = 0.0;
        for (int64_t i = 0; i < lq; ++i) sum += dout.at({1, i, col});
        for (int64_t j = 0; j < lk; ++j) {
          EXPECT_NEAR(dv.at({1, j, col}), sum / lk, 1e-5);
        }
      }
    }
  }
}

// -- Excluded keys and NaN keys -----------------------------------------------

bool IsSubnormal(float x) { return std::fpclassify(x) == FP_SUBNORMAL; }

int64_t CountSubnormals(const t::Tensor& x) {
  return std::count_if(x.data(), x.data() + x.size(), IsSubnormal);
}

// [batch, lk] keep rows that exclude a seeded tenth of each item's keys (at
// least one) at scattered positions.
t::Tensor ExcludeTenthOfKeys(int64_t batch, int64_t lk, uint64_t seed) {
  core::Rng rng(seed);
  t::Tensor keep = t::Tensor::Ones(t::Shape{batch, lk});
  const int64_t excluded = std::max<int64_t>(1, (lk + 5) / 10);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t x : rng.SampleWithoutReplacement(lk, excluded)) {
      keep.data()[b * lk + x] = 0.0f;
    }
  }
  return keep;
}

// On every tier, forward and backward: an excluded key weighs exactly 0, so
// no output or gradient is subnormal and the excluded keys' dK and dV rows
// are exactly 0 in an item that keeps a key; the last item, which excludes
// every key, keeps its uniform rows (dQ = dK = 0, dV = the uniform P's
// P^T dOut). The shapes are a train_pems step's SBA and TBA absorb (B = 4,
// N = 307, P = 12: 8 heads of width 4 over 3 shared reference points), a
// broadcast-form shape and a row-block shape.
TEST(FusedAttentionTest, ExcludedKeysWeighExactlyZero) {
  struct Case {
    const char* name;
    int64_t batch, heads, lq, lk, dk;
    bool shared_q;
  };
  const std::vector<Case> cases = {
      {"sba_absorb", 4 * 12, 8, 3, 307, 4, true},
      {"tba_absorb", 4 * 307, 8, 3, 12, 4, true},
      {"broadcast", 6, 8, 70, 12, 2, false},
      {"row_block", 4, 2, 70, 40, 4, false},
  };
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    core::Rng rng(36);
    for (const Case& c : cases) {
      SCOPED_TRACE(TierName() + " " + c.name);
      const int64_t hd = c.heads * c.dk, last = c.batch - 1;
      t::Tensor q = t::Tensor::RandomNormal(
          t::Shape{c.shared_q ? 1 : c.batch, c.lq, hd}, rng);
      t::Tensor k = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
      t::Tensor v = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
      t::Tensor keep = ExcludeTenthOfKeys(c.batch, c.lk, 37 + c.lk);
      std::fill(keep.data() + last * c.lk, keep.data() + c.batch * c.lk, 0.0f);
      t::Tensor dout =
          t::Tensor::RandomNormal(t::Shape{c.batch, c.lq, hd}, rng);
      const float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
      t::AttentionDims dims = t::FusedAttentionDims(q, k, v, &keep, c.heads);
      t::Tensor out = t::Tensor::Empty(dout.shape());
      t::Tensor dq = t::Tensor::Empty(dout.shape());
      t::Tensor dkk = t::Tensor::Empty(k.shape());
      t::Tensor dv = t::Tensor::Empty(v.shape());
      t::FusedAttentionInto(q.data(), k.data(), v.data(), keep.data(),
                            out.data(), dims, scale);
      t::FusedAttentionBackward(q.data(), k.data(), v.data(), keep.data(),
                                dout.data(), dq.data(), dkk.data(), dv.data(),
                                dims, scale);
      EXPECT_EQ(CountSubnormals(out), 0) << "out";
      EXPECT_EQ(CountSubnormals(dq), 0) << "dQ";
      EXPECT_EQ(CountSubnormals(dkk), 0) << "dK";
      EXPECT_EQ(CountSubnormals(dv), 0) << "dV";
      auto row_is_zero = [&](const t::Tensor& g, int64_t row) {
        const float* pg = g.data() + row * hd;
        return std::all_of(pg, pg + hd, [](float x) { return x == 0.0f; });
      };
      // Rows of the items that keep a key: exactly 0 iff the key is excluded.
      int64_t wrong_dk_rows = 0, wrong_dv_rows = 0;
      for (int64_t row = 0; row < last * c.lk; ++row) {
        const bool excluded = keep.data()[row] < 0.5f;
        wrong_dk_rows += row_is_zero(dkk, row) != excluded;
        wrong_dv_rows += row_is_zero(dv, row) != excluded;
      }
      EXPECT_EQ(wrong_dk_rows, 0);
      EXPECT_EQ(wrong_dv_rows, 0);
      // The item that excludes every key.
      for (int64_t i = 0; i < c.lq; ++i) {
        EXPECT_TRUE(row_is_zero(dq, last * c.lq + i)) << "dQ row " << i;
      }
      for (int64_t x = 0; x < c.lk; ++x) {
        EXPECT_TRUE(row_is_zero(dkk, last * c.lk + x)) << "dK key " << x;
      }
      for (int64_t col = 0; col < hd; ++col) {
        double sum = 0.0;
        for (int64_t i = 0; i < c.lq; ++i) sum += dout.at({last, i, col});
        for (int64_t x = 0; x < c.lk; ++x) {
          EXPECT_NEAR(dv.at({last, x, col}), sum / c.lk,
                      1e-5 + 1e-4 * std::fabs(sum / c.lk));
        }
      }
    }
  }
}

// A NaN in one item's K makes that item's output NaN on every tier, through
// the absorb form, the broadcast form and the row-block path, and leaves
// every other output bit as it is without the NaN: the NaN sits in head 0's
// columns of one key, so head 0's rows of that item are NaN throughout and
// its other heads and the other items are untouched.
TEST(FusedAttentionTest, NaNKeyMakesItsItemNaN) {
  struct Shape { int64_t lq, lk; };
  const int64_t batch = 3, heads = 2, dk = 4, hd = heads * dk;
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    core::Rng rng(38);
    for (const Shape& c : {Shape{3, 40}, Shape{70, 12}, Shape{70, 40}}) {
      SCOPED_TRACE(TierName() + " lq=" + std::to_string(c.lq) +
                   " lk=" + std::to_string(c.lk));
      t::Tensor q = t::Tensor::RandomNormal(t::Shape{batch, c.lq, hd}, rng);
      t::Tensor k = t::Tensor::RandomNormal(t::Shape{batch, c.lk, hd}, rng);
      t::Tensor v = t::Tensor::RandomNormal(t::Shape{batch, c.lk, hd}, rng);
      const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
      t::Tensor clean = FusedHeads(q, k, v, nullptr, heads, scale);
      t::Tensor poisoned_k = k.Clone();
      poisoned_k.data()[(1 * c.lk + c.lk / 2) * hd + 1] =
          std::numeric_limits<float>::quiet_NaN();
      t::Tensor poisoned = FusedHeads(q, poisoned_k, v, nullptr, heads, scale);
      int64_t finite_in_head = 0, changed_elsewhere = 0;
      for (int64_t i = 0; i < poisoned.size(); ++i) {
        const int64_t b = i / (c.lq * hd), col = i % hd;
        const float got = poisoned.data()[i], want = clean.data()[i];
        if (b == 1 && col < dk) {
          finite_in_head += !std::isnan(got);
        } else {
          changed_elsewhere += std::memcmp(&got, &want, sizeof(float)) != 0;
        }
      }
      EXPECT_EQ(finite_in_head, 0);
      EXPECT_EQ(changed_elsewhere, 0);
    }
  }
}

// -- Model level: grads off vs grads on -------------------------------------

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

// Recording a tape must not change forward bits: Predict and PredictMasked
// with grads on must equal the same calls under NoGradGuard bit for bit,
// masked and clean. N = 100 puts the spatial query rows
// across a 64-row block boundary; the full-attention variant makes
// lq = lk = N.
TEST(FusedAttentionModelTest, GradOffForwardMatchesGradOnForwardBitwise) {
  struct Case {
    int64_t nodes;
    bool use_bottleneck;
    bool table_iii;  // PEMS04 widths: d = 16, h = 8, T' = N' = 3, P = Q = 12
  };
  for (const Case& c : {Case{4, true, false}, Case{100, true, false},
                        Case{100, false, false}, Case{37, true, true}}) {
    model_ns::SstbanConfig config = ModelConfig(c.nodes, c.use_bottleneck);
    if (c.table_iii) {
      // dk = 2d/h = 4 in absorb, d/h = 2 in broadcast and transform; N = 37
      // leaves lane and row tails in every form.
      config = model_ns::TableIiiConfig("pems04-24");
      config.input_len = config.output_len = 12;
      config.num_nodes = c.nodes;
      config.num_features = 1;
      config.steps_per_day = 8;
      config.self_supervised = false;
      config.seed = 19;
    }
    model_ns::SstbanModel model(config);
    model.SetTraining(false);
    data::Batch batch = ModelBatch(2, config, /*seed=*/77);
    t::Tensor keep = t::Tensor::Ones(t::Shape{2, config.input_len, c.nodes});
    for (int64_t i = 0; i < keep.size(); i += 3) keep.data()[i] = 0.0f;
    keep.data()[0] = 1.0f;
    for (bool masked : {false, true}) {
      SCOPED_TRACE("N=" + std::to_string(c.nodes) +
                   (c.table_iii ? " pems04-24" : "") +
                   (c.use_bottleneck ? " stba" : " full") +
                   (masked ? " masked" : " clean"));
      auto forward = [&] {
        return masked ? model.PredictMasked(batch.x, keep, batch).value()
                      : model.Predict(batch.x, batch).value();
      };
      t::Tensor grads_on = forward();
      t::Tensor grads_off;
      {
        ag::NoGradGuard no_grad;
        grads_off = forward();
      }
      ExpectBitwise(grads_off, grads_on, "grads off vs grads on");
    }
  }
}

}  // namespace
}  // namespace sstban
