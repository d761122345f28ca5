#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "tensor/fused_attention.h"

namespace sstban::nn {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

MultiHeadAttention::MultiHeadAttention(int64_t query_dim, int64_t kv_dim,
                                       int64_t out_dim, int64_t num_heads,
                                       core::Rng& rng, int64_t head_dim)
    : num_heads_(num_heads),
      head_dim_(head_dim > 0 ? head_dim : std::max<int64_t>(1, out_dim / num_heads)),
      scale_(1.0f / std::sqrt(static_cast<float>(head_dim_))) {
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
                                         const t::Tensor* key_mask) const {
  // The fused op reads the projections in place (head j in columns
  // [j*dk, (j+1)*dk)), takes a batch-1 query as shared by every item, and
  // checks the shapes.
  return wo_->Forward(ag::FusedAttention(wq_->Forward(q), wk_->Forward(k),
                                         wv_->Forward(v), key_mask,
                                         num_heads_, scale_));
}

t::Tensor MultiHeadAttention::AttentionProbs(const ag::Variable& q,
                                             const ag::Variable& k,
                                             const t::Tensor* key_mask) const {
  ag::NoGradGuard no_grad;
  return t::AttentionProbs(wq_->Forward(q).value(), wk_->Forward(k).value(),
                           key_mask, num_heads_, scale_);
}

}  // namespace sstban::nn
