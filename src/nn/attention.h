#ifndef SSTBAN_NN_ATTENTION_H_
#define SSTBAN_NN_ATTENTION_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace sstban::nn {

// Multi-head scaled dot-product attention (the paper's MHSA primitive):
//
//   MHSA(Q, K, V) = concat(head_1..head_h) W^O
//   head_j = softmax(Q W_j^Q (K W_j^K)^T / sqrt(d)) V W_j^V
//
// Dimensions are deliberately asymmetric: SSTBAN's bottleneck attention
// feeds 2d-dimensional inputs but produces d-dimensional outputs in its
// second stage (Eq. 1-2), so query/key-value/output dims are independent.
class MultiHeadAttention : public Module {
 public:
  // head_dim defaults to max(1, out_dim / num_heads).
  MultiHeadAttention(int64_t query_dim, int64_t kv_dim, int64_t out_dim,
                     int64_t num_heads, core::Rng& rng, int64_t head_dim = 0);

  // q: [B, Lq, query_dim], k/v: [B, Lk, kv_dim] -> [B, Lq, out_dim]. A
  // batch-1 q ([1, Lq, query_dim]) is one query set shared by every batch
  // item; it is projected once.
  // `key_mask`, when given, is [B, Lk] with 1 = attend, 0 = exclude; excluded
  // keys receive -1e9 before the softmax (the paper's -inf masking). A fully
  // masked row degrades to uniform attention rather than NaN.
  // One path with grads on or off: ag::FusedAttention between the
  // projections, whose recompute backward is the training backward.
  autograd::Variable Forward(const autograd::Variable& q,
                             const autograd::Variable& k,
                             const autograd::Variable& v,
                             const tensor::Tensor* key_mask = nullptr) const;

  // The post-softmax attention of Forward(q, k, k, key_mask) averaged over
  // heads, [B, Lq, Lk], computed with grads off — used by the
  // reference-point interpretability analysis.
  tensor::Tensor AttentionProbs(const autograd::Variable& q,
                                const autograd::Variable& k,
                                const tensor::Tensor* key_mask = nullptr) const;

  int64_t num_heads() const { return num_heads_; }
  int64_t head_dim() const { return head_dim_; }

 private:
  int64_t num_heads_;
  int64_t head_dim_;
  float scale_;  // 1 / sqrt(head_dim)
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  std::unique_ptr<Linear> wo_;
};

}  // namespace sstban::nn

#endif  // SSTBAN_NN_ATTENTION_H_
