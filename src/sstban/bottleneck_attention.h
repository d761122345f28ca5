#ifndef SSTBAN_SSTBAN_BOTTLENECK_ATTENTION_H_
#define SSTBAN_SSTBAN_BOTTLENECK_ATTENTION_H_

#include <memory>

#include "nn/attention.h"
#include "nn/module.h"

namespace sstban::sstban {

// One-dimensional bottleneck attention (the TBA / SBA primitive of §IV-B,
// Eq. 1-2). R learnable reference points bridge all-pairs interactions:
//
//   I' = MHSA(I, X, X)    — reference points absorb global context
//   Y  = MHSA(X, I', I')  — elements read the compressed context back
//
// Complexity is O(L * R) per sequence instead of O(L^2). The reference
// points act like learned cluster centers (a Set-Transformer-style induced
// bottleneck).
class BottleneckAttention : public nn::Module {
 public:
  // in_dim is the element dimension (2d in the paper, since the block input
  // is H concatenated with the ST embedding); out_dim is d.
  BottleneckAttention(int64_t in_dim, int64_t out_dim, int64_t num_refs,
                      int64_t num_heads, core::Rng& rng);

  // x: [B', L, in_dim] -> [B', L, out_dim]. `key_mask` ([B', L], 1 = visible)
  // excludes masked elements from the first stage so reference points only
  // aggregate observed signals (the MAE branch's -inf masking).
  autograd::Variable Forward(const autograd::Variable& x,
                             const tensor::Tensor* key_mask = nullptr) const;

  // The second-stage attention of Forward(x), [B', L, R], computed with
  // grads off: how strongly each element reads each reference point — the
  // soft "cluster membership" of §IV-B's cluster-center interpretation.
  tensor::Tensor Assignments(const autograd::Variable& x) const;

  int64_t num_refs() const { return num_refs_; }

 private:
  // Stage one: the reference points after absorbing x, [B', R, in_dim].
  autograd::Variable Absorb(const autograd::Variable& x,
                            const tensor::Tensor* key_mask) const;

  int64_t in_dim_;
  int64_t num_refs_;
  autograd::Variable refs_;  // [R, in_dim] learnable reference points
  std::unique_ptr<nn::MultiHeadAttention> absorb_;   // I' = MHSA(I, X, X)
  std::unique_ptr<nn::MultiHeadAttention> broadcast_;  // Y = MHSA(X, I', I')
};

// Drop-in quadratic replacement used by the "w/o STBA" ablation (Table VI):
// plain multi-head self-attention MHSA(X, X, X) with O(L^2) cost.
class FullSelfAttention : public nn::Module {
 public:
  FullSelfAttention(int64_t in_dim, int64_t out_dim, int64_t num_heads,
                    core::Rng& rng);

  autograd::Variable Forward(const autograd::Variable& x,
                             const tensor::Tensor* key_mask = nullptr) const;

 private:
  std::unique_ptr<nn::MultiHeadAttention> attention_;
};

}  // namespace sstban::sstban

#endif  // SSTBAN_SSTBAN_BOTTLENECK_ATTENTION_H_
