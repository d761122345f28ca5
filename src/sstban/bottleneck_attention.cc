#include "sstban/bottleneck_attention.h"

#include "autograd/ops.h"
#include "core/check.h"
#include "nn/init.h"

namespace sstban::sstban {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

BottleneckAttention::BottleneckAttention(int64_t in_dim, int64_t out_dim,
                                         int64_t num_refs, int64_t num_heads,
                                         core::Rng& rng)
    : in_dim_(in_dim), num_refs_(num_refs) {
  refs_ = RegisterParameter(
      "refs", nn::XavierUniform(t::Shape{num_refs, in_dim}, rng));
  // Stage one keeps the reference points at the input width (2d in the
  // paper's equations); stage two projects down to the block output width.
  absorb_ = std::make_unique<nn::MultiHeadAttention>(in_dim, in_dim, in_dim,
                                                     num_heads, rng);
  broadcast_ = std::make_unique<nn::MultiHeadAttention>(in_dim, in_dim, out_dim,
                                                        num_heads, rng);
  RegisterModule("absorb", absorb_.get());
  RegisterModule("broadcast", broadcast_.get());
}

ag::Variable BottleneckAttention::Absorb(const ag::Variable& x,
                                         const t::Tensor* key_mask) const {
  SSTBAN_CHECK_EQ(x.rank(), 3);
  SSTBAN_CHECK_EQ(x.dim(2), in_dim_);
  // The reference points are one query set shared by every sequence, so
  // absorb projects them once for the whole batch.
  ag::Variable refs = ag::Reshape(refs_, t::Shape{1, num_refs_, in_dim_});
  return absorb_->Forward(refs, x, x, key_mask);
}

ag::Variable BottleneckAttention::Forward(const ag::Variable& x,
                                          const t::Tensor* key_mask) const {
  ag::Variable updated = Absorb(x, key_mask);
  return broadcast_->Forward(x, updated, updated);
}

t::Tensor BottleneckAttention::Assignments(const ag::Variable& x) const {
  ag::NoGradGuard no_grad;
  return broadcast_->AttentionProbs(x, Absorb(x, /*key_mask=*/nullptr));
}

FullSelfAttention::FullSelfAttention(int64_t in_dim, int64_t out_dim,
                                     int64_t num_heads, core::Rng& rng) {
  attention_ = std::make_unique<nn::MultiHeadAttention>(in_dim, in_dim, out_dim,
                                                        num_heads, rng);
  RegisterModule("attention", attention_.get());
}

ag::Variable FullSelfAttention::Forward(const ag::Variable& x,
                                        const t::Tensor* key_mask) const {
  return attention_->Forward(x, x, x, key_mask);
}

}  // namespace sstban::sstban
