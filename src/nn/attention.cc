#include "nn/attention.h"

#include <cmath>

#include "autograd/ops.h"
#include "core/check.h"
#include "tensor/fused_attention.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace sstban::nn {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

MultiHeadAttention::MultiHeadAttention(int64_t query_dim, int64_t kv_dim,
                                       int64_t out_dim, int64_t num_heads,
                                       core::Rng& rng, int64_t head_dim)
    : num_heads_(num_heads),
      head_dim_(head_dim > 0 ? head_dim : std::max<int64_t>(1, out_dim / num_heads)),
      out_dim_(out_dim) {
  int64_t hidden = num_heads_ * head_dim_;
  wq_ = std::make_unique<Linear>(query_dim, hidden, rng, /*use_bias=*/false);
  wk_ = std::make_unique<Linear>(kv_dim, hidden, rng, /*use_bias=*/false);
  wv_ = std::make_unique<Linear>(kv_dim, hidden, rng, /*use_bias=*/false);
  wo_ = std::make_unique<Linear>(hidden, out_dim, rng);
  RegisterModule("wq", wq_.get());
  RegisterModule("wk", wk_.get());
  RegisterModule("wv", wv_.get());
  RegisterModule("wo", wo_.get());
}

ag::Variable MultiHeadAttention::Forward(const ag::Variable& q,
                                         const ag::Variable& k,
                                         const ag::Variable& v,
                                         const t::Tensor* key_mask,
                                         t::Tensor* attention_probs) const {
  SSTBAN_CHECK_EQ(q.rank(), 3);
  SSTBAN_CHECK_EQ(k.rank(), 3);
  SSTBAN_CHECK_EQ(v.rank(), 3);
  int64_t batch = k.dim(0), lq = q.dim(1), lk = k.dim(1);
  SSTBAN_CHECK(q.dim(0) == batch || q.dim(0) == 1)
      << "query batch" << q.dim(0) << "vs key batch" << batch;
  SSTBAN_CHECK_EQ(v.dim(0), batch);
  SSTBAN_CHECK_EQ(v.dim(1), lk);
  if (key_mask != nullptr) {
    SSTBAN_CHECK_EQ(key_mask->rank(), 2);
    SSTBAN_CHECK_EQ(key_mask->dim(0), batch);
    SSTBAN_CHECK_EQ(key_mask->dim(1), lk);
  }
  const int64_t hidden = num_heads_ * head_dim_;

  // A batch-1 query is projected once for the whole batch.
  ag::Variable qp = wq_->Forward(q);  // [B or 1, Lq, h*dk]
  ag::Variable kp = wk_->Forward(k);  // [B, Lk, h*dk]
  ag::Variable vp = wv_->Forward(v);

  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Inference path: the fused kernel reads the projections in place (head j
  // in columns [j*dk, (j+1)*dk)) and streams the scores instead of
  // materializing the [B*h, Lq, Lk] tensor. Up to kFusedAttentionExactMaxKeys
  // keys it is bitwise identical to the unfused chain below, which stays the
  // path for training (the fused op's recompute backward reorders gradient
  // accumulations) and for callers that want the probabilities.
  if (attention_probs == nullptr && !ag::NoGradGuard::GradEnabled()) {
    return wo_->Forward(
        ag::FusedAttention(qp, kp, vp, key_mask, num_heads_, scale));
  }

  // Broadcast shared projected queries over the batch; Add's backward sums
  // their gradient back.
  if (qp.dim(0) != batch) {
    qp = ag::Add(qp, ag::Variable(t::Tensor::Zeros(t::Shape{batch, lq, hidden})));
  }

  // Splits [B, L, h*dk] into per-head batches [B*h, L, dk].
  auto split_heads = [&](const ag::Variable& x, int64_t len) {
    ag::Variable r = ag::Reshape(x, t::Shape{batch, len, num_heads_, head_dim_});
    r = ag::Permute(r, {0, 2, 1, 3});  // [B, h, L, dk]
    return ag::Reshape(r, t::Shape{batch * num_heads_, len, head_dim_});
  };
  ag::Variable qh = split_heads(qp, lq);
  ag::Variable kh = split_heads(kp, lk);
  ag::Variable vh = split_heads(vp, lk);

  ag::Variable scores =
      ag::MulScalar(ag::Bmm(qh, kh, /*transpose_a=*/false, /*transpose_b=*/true),
                    scale);  // [B*h, Lq, Lk]

  ag::Variable attn;
  if (key_mask != nullptr) {
    // Expand [B, Lk] -> additive [B*h, Lq, Lk]: excluded keys get -1e9.
    t::Tensor additive =
        t::Tensor::Empty(t::Shape{batch * num_heads_, lq, lk});
    const float* pm = key_mask->data();
    float* pa = additive.data();
    int64_t rows = batch * num_heads_ * lq;
    t::ParallelFor(0, rows, [&](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        float* row = pa + r * lk;
        const float* mrow = pm + (r / (num_heads_ * lq)) * lk;
        for (int64_t j = 0; j < lk; ++j) {
          row[j] = mrow[j] > 0.5f ? 0.0f : -1e9f;
        }
      }
    }, /*grain=*/256);
    attn = ag::SoftmaxWithMask(scores, additive);
  } else {
    attn = ag::Softmax(scores);
  }

  if (attention_probs != nullptr) {
    // Average the per-head distributions into [B, Lq, Lk].
    t::Tensor heads =
        attn.value().Reshape(t::Shape{batch, num_heads_, lq, lk});
    *attention_probs = t::Mean(heads, 1);
  }

  ag::Variable context = ag::Bmm(attn, vh);  // [B*h, Lq, dk]
  context = ag::Reshape(context, t::Shape{batch, num_heads_, lq, head_dim_});
  context = ag::Permute(context, {0, 2, 1, 3});  // [B, Lq, h, dk]
  context = ag::Reshape(context, t::Shape{batch, lq, hidden});
  return wo_->Forward(context);
}

}  // namespace sstban::nn
