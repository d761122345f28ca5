#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "gradcheck.h"
#include "nn/attention.h"
#include "simd_tiers.h"
#include "sstban/bottleneck_attention.h"
#include "sstban/config.h"
#include "sstban/decoders.h"
#include "sstban/encoder.h"
#include "sstban/model.h"
#include "sstban/stba_block.h"
#include "sstban/ste.h"
#include "sstban/transform_attention.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels.h"

namespace sstban::sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
using ::sstban::testing::AvailableLevels;
using ::sstban::testing::ScopedSimdLevel;

t::Tensor Rand(t::Shape shape, uint64_t seed) {
  core::Rng rng(seed);
  return t::Tensor::RandomNormal(std::move(shape), rng, 0.0f, 0.5f);
}

SstbanConfig TinyConfig() {
  SstbanConfig c;
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
  return c;
}

data::Batch TinyBatch(const SstbanConfig& c, int64_t batch_size) {
  data::Batch batch;
  core::Rng rng(42);
  batch.x = t::Tensor::RandomNormal(
      t::Shape{batch_size, c.input_len, c.num_nodes, c.num_features}, rng);
  batch.y = t::Tensor::RandomNormal(
      t::Shape{batch_size, c.output_len, c.num_nodes, c.num_features}, rng);
  for (int64_t i = 0; i < batch_size * c.input_len; ++i) {
    batch.tod_in.push_back(i % c.steps_per_day);
    batch.dow_in.push_back((i / c.steps_per_day) % 7);
  }
  for (int64_t i = 0; i < batch_size * c.output_len; ++i) {
    batch.tod_out.push_back((i + 3) % c.steps_per_day);
    batch.dow_out.push_back(((i + 3) / c.steps_per_day) % 7);
  }
  return batch;
}

TEST(ConfigTest, ValidateAcceptsDefaults) {
  SstbanConfig c = TinyConfig();
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ConfigTest, ValidateRejectsBadValues) {
  SstbanConfig c = TinyConfig();
  c.num_nodes = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = TinyConfig();
  c.mask_rate = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c = TinyConfig();
  c.lambda = -0.1;
  EXPECT_FALSE(c.Validate().ok());
  c = TinyConfig();
  c.use_bottleneck = true;
  c.temporal_refs = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, TableIiiPresetsMatchPaper) {
  SstbanConfig c = TableIiiConfig("seattle-36");
  EXPECT_EQ(c.input_len, 36);
  EXPECT_EQ(c.encoder_blocks, 2);
  EXPECT_EQ(c.hidden_dim, 8);
  EXPECT_EQ(c.num_heads, 16);
  EXPECT_EQ(c.patch_len, 18);
  EXPECT_DOUBLE_EQ(c.mask_rate, 0.5);
  EXPECT_DOUBLE_EQ(c.lambda, 0.5);
  c = TableIiiConfig("pems08-48");
  EXPECT_EQ(c.encoder_blocks, 3);
  EXPECT_EQ(c.patch_len, 24);
  EXPECT_EQ(c.temporal_refs, 3);
  EXPECT_EQ(c.recon_blocks, 1);
}

TEST(SteTest, OutputShapeAndBroadcastStructure) {
  core::Rng rng(1);
  SpatialTemporalEmbedding ste(4, 12, 6, rng);
  std::vector<int64_t> tod = {0, 1, 2, 3, 4, 5};
  std::vector<int64_t> dow = {0, 0, 0, 1, 1, 1};
  ag::Variable e = ste.Forward(tod, dow, /*batch=*/2, /*len=*/3);
  EXPECT_EQ(e.shape(), t::Shape({2, 3, 4, 6}));
  // Same (tod, dow) and same node -> identical embedding. tod[0] with
  // dow[0] appears only once here, so instead check that node structure is
  // shared: E[b,l,v] - E[b,l,w] must be constant across (b,l).
  t::Tensor diff01 = t::Sub(t::Slice(e.value(), 2, 0, 1),
                            t::Slice(e.value(), 2, 1, 1));
  t::Tensor first = t::Slice(t::Slice(diff01, 0, 0, 1), 1, 0, 1);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t l = 0; l < 3; ++l) {
      t::Tensor cell = t::Slice(t::Slice(diff01, 0, b, 1), 1, l, 1);
      EXPECT_TRUE(t::AllClose(cell, first, 1e-5f, 1e-5f));
    }
  }
}

TEST(SteTest, SameCalendarGivesSameTemporalEmbedding) {
  core::Rng rng(2);
  SpatialTemporalEmbedding ste(3, 10, 4, rng);
  std::vector<int64_t> tod = {5, 5};
  std::vector<int64_t> dow = {2, 2};
  ag::Variable e = ste.Forward(tod, dow, 1, 2);
  EXPECT_TRUE(t::AllClose(t::Slice(e.value(), 1, 0, 1),
                          t::Slice(e.value(), 1, 1, 1), 1e-6f, 1e-6f));
}

TEST(BottleneckAttentionTest, ShapeAndFiniteness) {
  core::Rng rng(3);
  BottleneckAttention attn(/*in_dim=*/8, /*out_dim=*/4, /*num_refs=*/3,
                           /*num_heads=*/2, rng);
  ag::Variable x(Rand({6, 10, 8}, 4));
  ag::Variable y = attn.Forward(x);
  EXPECT_EQ(y.shape(), t::Shape({6, 10, 4}));
  EXPECT_FALSE(t::HasNonFinite(y.value()));
}

TEST(BottleneckAttentionTest, MaskedElementsDoNotLeakIntoReferences) {
  core::Rng rng(5);
  BottleneckAttention attn(4, 4, 2, 2, rng);
  t::Tensor x = Rand({1, 6, 4}, 6);
  t::Tensor mask = t::Tensor::Ones(t::Shape{1, 6});
  mask.at({0, 3}) = 0.0f;
  ag::Variable out1 = attn.Forward(ag::Variable(x), &mask);
  t::Tensor x2 = x.Clone();
  x2.at({0, 3, 0}) += 100.0f;  // perturb the masked element's content
  ag::Variable out2 = attn.Forward(ag::Variable(x2), &mask);
  // Outputs at other positions must be unchanged: the masked element was
  // never aggregated into the reference points. (Position 3's own output
  // row changes because it still issues a query from its perturbed state.)
  for (int64_t pos : {0, 1, 2, 4, 5}) {
    EXPECT_TRUE(t::AllClose(t::Slice(out1.value(), 1, pos, 1),
                            t::Slice(out2.value(), 1, pos, 1), 1e-4f, 1e-4f))
        << "position " << pos;
  }
}

TEST(BottleneckAttentionTest, ComplexityIsLinearInSequenceLength) {
  // The bottleneck keeps the score matrices at [L, R]; doubling L must not
  // square the number of score entries. We verify functionally: runtime is
  // not the contract here, but the op-level shapes are — a full attention
  // would need [L, L]. We approximate by checking the module works at a
  // sequence length where quadratic storage would be large but linear is
  // trivial.
  core::Rng rng(7);
  BottleneckAttention attn(4, 4, 2, 2, rng);
  ag::Variable x(Rand({1, 2048, 4}, 8));
  ag::Variable y = attn.Forward(x);
  EXPECT_EQ(y.dim(1), 2048);
}

// Peak live tensor bytes of one forward with the tape recording, above
// what was live before it (the module's weights and its input).
template <typename Attention>
int64_t ForwardPeakBytes(const Attention& attn, int64_t len) {
  ag::Variable x(Rand({1, len, 16}, 8));
  core::MemoryTracker& tracker = core::MemoryTracker::Global();
  tracker.ResetPeak();
  const int64_t base = tracker.live_bytes();
  ag::Variable y = attn.Forward(x);
  return tracker.peak_bytes() - base;
}

TEST(AttentionMemoryTest, PeakGrowsLinearlyInSequenceLength) {
  // Neither attention keeps an [L, L] tensor, so a forward peaks at
  // a + b * L bytes with a >= 0, and quadrupling L at most quadruples the
  // peak. A materialized [L, L] score tensor would read about 16x.
  core::Rng rng(7);
  BottleneckAttention bottleneck(/*in_dim=*/16, /*out_dim=*/16,
                                 /*num_refs=*/3, /*num_heads=*/4, rng);
  FullSelfAttention full(/*in_dim=*/16, /*out_dim=*/16, /*num_heads=*/4, rng);
  const int64_t bottleneck_512 = ForwardPeakBytes(bottleneck, 512);
  const int64_t full_512 = ForwardPeakBytes(full, 512);
  EXPECT_GT(bottleneck_512, 0);
  EXPECT_GT(full_512, 0);
  EXPECT_LE(ForwardPeakBytes(bottleneck, 2048), 4 * bottleneck_512);
  EXPECT_LE(ForwardPeakBytes(full, 2048), 4 * full_512);
}

TEST(FullSelfAttentionTest, MatchesInterface) {
  core::Rng rng(9);
  FullSelfAttention attn(8, 4, 2, rng);
  ag::Variable x(Rand({2, 5, 8}, 10));
  EXPECT_EQ(attn.Forward(x).shape(), t::Shape({2, 5, 4}));
}

TEST(StbaBlockTest, PreservesShape) {
  core::Rng rng(11);
  StbaBlock block(4, 2, 2, 2, /*use_bottleneck=*/true, rng);
  ag::Variable h(Rand({2, 6, 5, 4}, 12));
  ag::Variable e(Rand({2, 6, 5, 4}, 13));
  ag::Variable out = block.Forward(h, e);
  EXPECT_EQ(out.shape(), t::Shape({2, 6, 5, 4}));
}

TEST(StbaBlockTest, FullAttentionVariantPreservesShape) {
  core::Rng rng(14);
  StbaBlock block(4, 2, 2, 2, /*use_bottleneck=*/false, rng);
  ag::Variable h(Rand({2, 6, 5, 4}, 15));
  ag::Variable e(Rand({2, 6, 5, 4}, 16));
  EXPECT_EQ(block.Forward(h, e).shape(), t::Shape({2, 6, 5, 4}));
}

TEST(StbaBlockTest, ResidualConnectionPresent) {
  // Scaling the input H also shifts the output through the residual path:
  // out - H must equal the attention contribution, so out != attention
  // output alone. Cheap check: with zeroed attention impossible, verify
  // out differs from block(H, E) - H recomputation consistency instead.
  core::Rng rng(17);
  StbaBlock block(4, 2, 2, 2, true, rng);
  ag::Variable h(Rand({1, 4, 3, 4}, 18));
  ag::Variable e(Rand({1, 4, 3, 4}, 19));
  ag::Variable out1 = block.Forward(h, e);
  ag::Variable out2 = block.Forward(h, e);
  // Deterministic forward.
  EXPECT_TRUE(t::AllClose(out1.value(), out2.value()));
  // Residual: adding delta to H adds at least delta's direction to out.
  t::Tensor delta = t::Tensor::Full(h.shape(), 0.5f);
  ag::Variable h2(t::Add(h.value(), delta));
  ag::Variable out3 = block.Forward(h2, e);
  // The difference must be nonzero and correlated with delta (residual
  // passes it straight through plus attention changes).
  t::Tensor diff = t::Sub(out3.value(), out1.value());
  EXPECT_GT(t::MeanAll(diff).item(), 0.1f);
}

TEST(StbaBlockTest, GradientsFlowToAllParameters) {
  core::Rng rng(20);
  StbaBlock block(4, 2, 2, 2, true, rng);
  ag::Variable h(Rand({1, 4, 3, 4}, 21));
  ag::Variable e(Rand({1, 4, 3, 4}, 22));
  ag::SumAll(ag::Square(block.Forward(h, e))).Backward();
  for (auto& [name, p] : block.NamedParameters()) {
    EXPECT_TRUE(p.has_grad()) << name;
  }
}

// End-to-end gradchecks through the attention primitive every SSTBAN block
// is built from: the fused op and its recompute backward between the
// projections, with asymmetric query/kv/output dims so every projection is
// exercised at a distinct size. Inputs: a single item; a batch-1 query
// shared by three key/value items (how bottleneck attention passes its
// reference points), whose gradient is summed over the batch; a key mask
// that excludes every key of one item; and lq = 8 / 9 (the absorb form's
// limit) by lk = 16 / 17 (the broadcast form's), on every kernel tier.
struct AttentionGradCase {
  std::string name;
  t::Tensor q, k, v, keep;  // keep undefined: no key mask
};
std::vector<AttentionGradCase> AttentionGradCases(uint64_t seed) {
  // q [q_batch, lq, 3], k/v [batch, lk, 3] from three consecutive seeds.
  auto make = [&](std::string name, int64_t q_batch, int64_t lq,
                  int64_t batch, int64_t lk) {
    AttentionGradCase c{std::move(name), Rand({q_batch, lq, 3}, seed),
                        Rand({batch, lk, 3}, seed + 1),
                        Rand({batch, lk, 3}, seed + 2), t::Tensor()};
    seed += 3;
    return c;
  };
  std::vector<AttentionGradCase> cases;
  cases.push_back(make("single item", 1, 2, 1, 3));
  cases.push_back(make("shared query", 1, 2, 3, 3));
  AttentionGradCase masked = make("fully masked item", 2, 2, 2, 3);
  masked.keep = t::Tensor::Ones(t::Shape{2, 3});
  masked.keep.at({0, 1}) = 0.0f;
  for (int64_t j = 0; j < 3; ++j) masked.keep.at({1, j}) = 0.0f;
  cases.push_back(masked);
  for (int64_t lq : {8, 9}) {
    for (int64_t lk : {16, 17}) {
      cases.push_back(make("lq " + std::to_string(lq) + " lk " +
                               std::to_string(lk),
                           2, lq, 2, lk));
    }
  }
  return cases;
}

TEST(MultiHeadAttentionTest, InputGradientsMatchFiniteDifferences) {
  core::Rng rng(31);
  nn::MultiHeadAttention mha(/*query_dim=*/3, /*kv_dim=*/3, /*out_dim=*/4,
                             /*num_heads=*/2, rng);
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    for (const AttentionGradCase& c : AttentionGradCases(32)) {
      SCOPED_TRACE(std::string(t::simd::Kernels().name) + " " + c.name);
      const t::Tensor* keep = c.keep.defined() ? &c.keep : nullptr;
      ::sstban::testing::ExpectGradientsMatch(
          [&](std::vector<ag::Variable>& leaves) {
            return ag::SumAll(ag::Square(
                mha.Forward(leaves[0], leaves[1], leaves[2], keep)));
          },
          {c.q, c.k, c.v});
    }
  }
}

TEST(MultiHeadAttentionTest, ParameterGradientsMatchFiniteDifferences) {
  core::Rng rng(35);
  nn::MultiHeadAttention mha(/*query_dim=*/3, /*kv_dim=*/3, /*out_dim=*/4,
                             /*num_heads=*/2, rng);
  for (core::SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel scoped(level);
    for (const AttentionGradCase& c : AttentionGradCases(36)) {
      SCOPED_TRACE(std::string(t::simd::Kernels().name) + " " + c.name);
      const t::Tensor* keep = c.keep.defined() ? &c.keep : nullptr;
      ag::Variable q(c.q), k(c.k), v(c.v);
      ::sstban::testing::ExpectParameterGradientsMatch(
          [&] { return ag::SumAll(ag::Square(mha.Forward(q, k, v, keep))); },
          mha.Parameters());
    }
  }
}

// Full StbaBlock gradcheck: bottleneck attention (both stages), feed-forward,
// residual and norm layers in one graph, against finite differences on both
// the hidden state and the spatial-temporal embedding.
TEST(StbaBlockTest, InputGradientsMatchFiniteDifferences) {
  core::Rng rng(41);
  StbaBlock block(/*dim=*/2, /*num_heads=*/1, /*temporal_refs=*/2,
                  /*spatial_refs=*/2, /*use_bottleneck=*/true, rng);
  ::sstban::testing::ExpectGradientsMatch(
      [&](std::vector<ag::Variable>& leaves) {
        return ag::MeanAll(ag::Square(block.Forward(leaves[0], leaves[1])));
      },
      {Rand({1, 2, 2, 2}, 42), Rand({1, 2, 2, 2}, 43)});
}

TEST(StbaBlockTest, ParameterGradientsMatchFiniteDifferences) {
  core::Rng rng(44);
  StbaBlock block(/*dim=*/2, /*num_heads=*/1, /*temporal_refs=*/2,
                  /*spatial_refs=*/2, /*use_bottleneck=*/true, rng);
  ag::Variable h(Rand({1, 2, 2, 2}, 45));
  ag::Variable e(Rand({1, 2, 2, 2}, 46));
  ::sstban::testing::ExpectParameterGradientsMatch(
      [&] { return ag::MeanAll(ag::Square(block.Forward(h, e))); },
      block.Parameters(), /*eps=*/1e-2f, /*tol=*/2e-2f,
      /*max_probes_per_param=*/6);
}

TEST(TransformAttentionTest, ConvertsTemporalLength) {
  core::Rng rng(23);
  TransformAttention ta(4, 2, rng);
  ag::Variable e_out(Rand({2, 7, 3, 4}, 24));  // Q=7
  ag::Variable e_in(Rand({2, 5, 3, 4}, 25));   // P=5
  ag::Variable h(Rand({2, 5, 3, 4}, 26));
  ag::Variable out = ta.Forward(e_out, e_in, h);
  EXPECT_EQ(out.shape(), t::Shape({2, 7, 3, 4}));
}

TEST(EncoderTest, ProducesLatentOfWidthD) {
  SstbanConfig c = TinyConfig();
  core::Rng rng(c.seed);
  StEncoder encoder(c, rng);
  data::Batch batch = TinyBatch(c, 2);
  SpatialTemporalEmbedding ste(c.num_nodes, c.steps_per_day, c.hidden_dim, rng);
  ag::Variable e = ste.Forward(batch.tod_in, batch.dow_in, 2, c.input_len);
  ag::Variable h = encoder.Forward(ag::Variable(batch.x), e);
  EXPECT_EQ(h.shape(),
            t::Shape({2, c.input_len, c.num_nodes, c.hidden_dim}));
}

TEST(ReconstructingDecoderTest, MaskTokenFillsMaskedPositions) {
  SstbanConfig c = TinyConfig();
  core::Rng rng(31);
  StReconstructingDecoder decoder(c, rng);
  int64_t b = 1, p = c.input_len, n = c.num_nodes, d = c.hidden_dim;
  ag::Variable encoded(Rand({b, p, n, d}, 32));
  ag::Variable e(Rand({b, p, n, d}, 33));
  t::Tensor keep = t::Tensor::Ones(t::Shape{b, p, n, 1});
  keep.at({0, 2, 1, 0}) = 0.0f;
  ag::Variable out = decoder.Forward(encoded, e, keep);
  EXPECT_EQ(out.shape(), t::Shape({b, p, n, d}));
  EXPECT_FALSE(t::HasNonFinite(out.value()));
  // Changing the encoder latent at the masked position must not change
  // anything (it was replaced by the mask token before the blocks).
  t::Tensor encoded2 = encoded.value().Clone();
  encoded2.at({0, 2, 1, 0}) += 50.0f;
  ag::Variable out2 = decoder.Forward(ag::Variable(encoded2), e, keep);
  EXPECT_TRUE(t::AllClose(out.value(), out2.value(), 1e-4f, 1e-4f));
}

TEST(SstbanModelTest, PredictShape) {
  SstbanConfig c = TinyConfig();
  SstbanModel model(c);
  data::Batch batch = TinyBatch(c, 3);
  ag::Variable pred = model.Predict(batch.x, batch);
  EXPECT_EQ(pred.shape(),
            t::Shape({3, c.output_len, c.num_nodes, c.num_features}));
  EXPECT_FALSE(t::HasNonFinite(pred.value()));
}

// The temporal-only ablation (spatial_mixing = false) keeps every forecast a
// function of its own node's history: changing one node's input window
// leaves every other node's forecast bit for bit. In the paper's model (the
// default) the spatial reference points carry that change to other nodes.
TEST(SstbanModelTest, SpatialMixingOffKeepsEveryForecastNodeLocal) {
  constexpr int64_t kChangedNode = 2;
  for (bool spatial_mixing : {false, true}) {
    SstbanConfig c = TinyConfig();
    c.spatial_mixing = spatial_mixing;
    SstbanModel model(c);
    model.SetTraining(false);
    const data::Batch batch = TinyBatch(c, 2);
    const t::Tensor before = model.Predict(batch.x, batch).value().Clone();

    data::Batch changed = batch;
    changed.x = batch.x.Clone();
    float* x = changed.x.data();
    for (int64_t bp = 0; bp < c.input_len * changed.x.dim(0); ++bp) {
      for (int64_t f = 0; f < c.num_features; ++f) {
        x[(bp * c.num_nodes + kChangedNode) * c.num_features + f] += 1.5f;
      }
    }
    const t::Tensor after = model.Predict(changed.x, changed).value();

    int64_t own_changed = 0, others_changed = 0;
    for (int64_t i = 0; i < after.size(); ++i) {
      const bool same =
          std::memcmp(before.data() + i, after.data() + i, sizeof(float)) == 0;
      if (same) continue;
      const int64_t node = (i / c.num_features) % c.num_nodes;
      ++(node == kChangedNode ? own_changed : others_changed);
    }
    EXPECT_GT(own_changed, 0) << "spatial_mixing=" << spatial_mixing;
    if (spatial_mixing) {
      EXPECT_GT(others_changed, 0);
    } else {
      EXPECT_EQ(others_changed, 0);
    }
  }
}

TEST(SstbanModelTest, TwoBranchLossesAreFiniteAndCombined) {
  SstbanConfig c = TinyConfig();
  SstbanModel model(c);
  model.SetTraining(true);
  data::Batch batch = TinyBatch(c, 2);
  auto out = model.ForwardTwoBranch(batch.x, batch.y, batch);
  ASSERT_TRUE(out.alignment_loss.defined());
  float fc = out.forecast_loss.item();
  float al = out.alignment_loss.item();
  float total = out.total_loss.item();
  EXPECT_TRUE(std::isfinite(fc));
  EXPECT_TRUE(std::isfinite(al));
  float lambda = static_cast<float>(c.lambda);
  EXPECT_NEAR(total, (1 - lambda) * fc + lambda * al, 1e-4f);
}

TEST(SstbanModelTest, EvalModeSkipsSelfSupervisedBranch) {
  SstbanConfig c = TinyConfig();
  SstbanModel model(c);
  model.SetTraining(false);
  data::Batch batch = TinyBatch(c, 2);
  auto out = model.ForwardTwoBranch(batch.x, batch.y, batch);
  EXPECT_FALSE(out.alignment_loss.defined());
  EXPECT_FLOAT_EQ(out.total_loss.item(), out.forecast_loss.item());
}

TEST(SstbanModelTest, SelfSupervisedOffMatchesForecastLoss) {
  SstbanConfig c = TinyConfig();
  c.self_supervised = false;
  SstbanModel model(c);
  data::Batch batch = TinyBatch(c, 2);
  auto out = model.ForwardTwoBranch(batch.x, batch.y, batch);
  EXPECT_FLOAT_EQ(out.total_loss.item(), out.forecast_loss.item());
}

TEST(SstbanModelTest, BackwardReachesEveryParameter) {
  SstbanConfig c = TinyConfig();
  SstbanModel model(c);
  data::Batch batch = TinyBatch(c, 2);
  ag::Variable loss = model.TrainingLoss(batch.x, batch.y, batch);
  model.ZeroGrad();
  loss.Backward();
  int64_t with_grad = 0, total = 0;
  for (auto& [name, p] : model.NamedParameters()) {
    ++total;
    if (p.has_grad()) ++with_grad;
  }
  // Every parameter participates in the two-branch loss.
  EXPECT_EQ(with_grad, total);
}

TEST(SstbanModelTest, DetachedAlignmentTargetKeepsDecoderGradientFree) {
  // The alignment target is detached, so the alignment loss alone must NOT
  // produce gradients in the forecasting decoder, but still trains the
  // encoder via the masked pathway.
  SstbanConfig c = TinyConfig();
  SstbanModel model(c);
  data::Batch batch = TinyBatch(c, 2);
  auto out = model.ForwardTwoBranch(batch.x, batch.y, batch);
  model.ZeroGrad();
  out.alignment_loss.Backward();
  bool reconstructor_has_grad = false;
  for (auto& [name, p] : model.NamedParameters()) {
    if (name.find("reconstructor") != std::string::npos && p.has_grad()) {
      reconstructor_has_grad = true;
    }
    if (name.find("decoder") == 0 && p.has_grad()) {
      FAIL() << "forecasting decoder " << name
             << " received gradient from detached alignment loss";
    }
  }
  EXPECT_TRUE(reconstructor_has_grad);
}

// The label-free objective is the two-branch step's self-supervised half:
// on twins built from one seed it gives the same loss bits and leaves the
// masking stream in the same state.
TEST(SstbanModelTest, SelfSupervisedLossIsTheTwoBranchAlignmentLoss) {
  SstbanConfig c = TinyConfig();
  data::Batch batch = TinyBatch(c, 2);
  SstbanModel label_free(c), two_branch(c);
  label_free.SetTraining(true);
  two_branch.SetTraining(true);
  float ssl = label_free.SelfSupervisedLoss(batch.x, batch).item();
  auto out = two_branch.ForwardTwoBranch(batch.x, batch.y, batch);
  ASSERT_TRUE(out.alignment_loss.defined());
  float alignment = out.alignment_loss.item();
  EXPECT_EQ(std::memcmp(&ssl, &alignment, sizeof(float)), 0)
      << ssl << " vs " << alignment;
  core::Rng::State a = label_free.TrainingRng()->SaveState();
  core::Rng::State b = two_branch.TrainingRng()->SaveState();
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.inc, b.inc);
  EXPECT_EQ(a.has_spare, b.has_spare);
  EXPECT_EQ(a.spare, b.spare);
}

// The distinct nodes of the graph recorded behind `root`.
std::vector<ag::NodePtr> TapeNodes(const ag::Variable& root) {
  std::vector<ag::NodePtr> nodes;
  std::set<const ag::Node*> seen;
  std::vector<ag::NodePtr> stack = {root.node()};
  while (!stack.empty()) {
    ag::NodePtr node = stack.back();
    stack.pop_back();
    if (!seen.insert(node.get()).second) continue;
    nodes.push_back(node);
    for (const ag::NodePtr& parent : node->parents) stack.push_back(parent);
  }
  return nodes;
}

// Op counts of the graph recorded behind `root`.
std::map<std::string, int> OpCounts(const ag::Variable& root) {
  std::map<std::string, int> counts;
  for (const ag::NodePtr& node : TapeNodes(root)) ++counts[node->op];
  return counts;
}

// Training records the attention serving runs: the two-branch loss, masked
// encoder and reconstructor included, holds fused attention nodes and no
// node of the unfused softmax/bmm chain.
TEST(SstbanModelTest, TrainingRecordsOnlyFusedAttention) {
  SstbanConfig c = TinyConfig();
  data::Batch batch = TinyBatch(c, 2);
  SstbanModel model(c);
  model.SetTraining(true);
  std::map<std::string, int> ops =
      OpCounts(model.TrainingLoss(batch.x, batch.y, batch));
  c.self_supervised = false;
  SstbanModel forecast_only(c);
  forecast_only.SetTraining(true);
  std::map<std::string, int> forecast_ops =
      OpCounts(forecast_only.TrainingLoss(batch.x, batch.y, batch));

  EXPECT_GT(forecast_ops["fused_attention"], 0);
  // The masked branch attends through the same op.
  EXPECT_GT(ops["fused_attention"], forecast_ops["fused_attention"]);
  EXPECT_EQ(ops.count("softmax"), 0u);
  EXPECT_EQ(ops.count("bmm"), 0u);
}

// The two-branch step embeds each calendar once: the masked pass reuses the
// clean pass's input embedding, so the STE's spatial table is read by one
// node per calendar.
TEST(SstbanModelTest, TwoBranchTapeRunsTheSteOncePerCalendar) {
  SstbanConfig c = TinyConfig();
  data::Batch batch = TinyBatch(c, 2);
  SstbanModel model(c);
  model.SetTraining(true);
  ag::NodePtr table;
  for (auto& [name, p] : model.NamedParameters()) {
    if (name == "ste.spatial.weight") table = p.node();
  }
  ASSERT_NE(table, nullptr);
  int64_t readers = 0;
  for (const ag::NodePtr& node :
       TapeNodes(model.TrainingLoss(batch.x, batch.y, batch))) {
    readers += std::count(node->parents.begin(), node->parents.end(), table);
  }
  EXPECT_EQ(readers, 2);
}

TEST(SstbanModelTest, WithoutBottleneckUsesFullAttention) {
  SstbanConfig c = TinyConfig();
  c.use_bottleneck = false;
  SstbanModel model(c);
  EXPECT_EQ(model.name(), "SSTBAN-w/o-STBA");
  data::Batch batch = TinyBatch(c, 2);
  ag::Variable pred = model.Predict(batch.x, batch);
  EXPECT_FALSE(t::HasNonFinite(pred.value()));
}

TEST(SstbanModelTest, DeterministicPrediction) {
  SstbanConfig c = TinyConfig();
  SstbanModel a(c), b(c);
  data::Batch batch = TinyBatch(c, 2);
  EXPECT_TRUE(t::AllClose(a.Predict(batch.x, batch).value(),
                          b.Predict(batch.x, batch).value()));
}

}  // namespace
}  // namespace sstban::sstban
