#ifndef SSTBAN_TENSOR_FUSED_ATTENTION_H_
#define SSTBAN_TENSOR_FUSED_ATTENTION_H_

#include "tensor/tensor.h"

namespace sstban::tensor {

// Single-pass multi-head scaled-dot-product attention:
//   out_j = softmax(scale * Q_j K_j^T + mask) V_j   for every head j
// read and written in the layout the Q/K/V projections produce:
//   Q [q_batch, lq, heads*dk] (q_batch is `batch`, or 1 when `shared_q`: one
//     query set, read at batch stride 0, serves every batch item),
//   K, V [batch, lk, heads*dk], out [batch, lq, heads*dk],
// with head j in columns [j*dk, (j+1)*dk). No head split or merge copy is
// made and the [lq, lk] score matrix is never materialized.
//
// The result is bitwise identical to the unfused Bmm -> MulScalar ->
// Add(mask) -> Softmax -> Bmm chain of the active SIMD tier on the
// head-split operands, at every shape. At dk <= 8 and lk <= 512 the tier's
// attention forms run (few queries: absorb; short key rows: broadcast;
// fused_attention.cc holds the thresholds); every other shape streams blocks
// of 64 query rows through the same GEMM and softmax kernels as the chain,
// each GEMM routed by the whole problem's shape (tensor/matmul.h
// GemmRowRangeAccumulate). Every reduction is sequential within one batch
// item, so results are bitwise deterministic.
//
// `key_mask` is optional: when non-null it holds [batch, lk] keep rows
// (> 0.5f keeps a key), shared by the heads of a batch item, and the kernel
// applies the additive expansion `keep ? 0.0f : -1e9f` to the scores.

struct AttentionDims {
  int64_t batch = 1;
  int64_t heads = 1;
  int64_t lq = 1;
  int64_t lk = 1;
  int64_t dk = 1;
  bool shared_q = false;
};

void FusedAttentionInto(const float* q, const float* k, const float* v,
                        const float* key_mask, float* out,
                        const AttentionDims& dims, float scale);

// Validates q [batch or 1, lq, heads*dk], k/v [batch, lk, heads*dk] and the
// optional key_mask [batch, lk], and returns the call's dims.
AttentionDims FusedAttentionDims(const Tensor& q, const Tensor& k,
                                 const Tensor& v, const Tensor* key_mask,
                                 int64_t heads);

// Tensor wrapper for contiguous single-head operands: Q [batch, lq, dk],
// K/V [batch, lk, dk] (the heads == 1 case of FusedAttentionInto). When
// non-null, `key_mask` is [batch / mask_heads, lk]: each keep row serves
// mask_heads consecutive batch items.
Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor* key_mask, int64_t mask_heads, float scale);

// Attention probabilities averaged over heads, [batch, lq, lk], for the
// q/k operands FusedAttentionInto takes: the unfused chain's softmax output
// and head mean, bit for bit. Grads-off introspection; the forward never
// materializes them.
Tensor AttentionProbs(const Tensor& q, const Tensor& k, const Tensor* key_mask,
                      int64_t heads, float scale);

// Gradient by recomputation, in the same layout:
//   dV += P^T dOut, dP = dOut V^T,
//   dS = P o (dP - rowsum(dP o P)) * scale,
//   dQ = dS K, dK += dS^T Q.
// The backward picks its path as the forward does (one dispatch, so a shape
// has a form in both directions or in neither): where the forward runs an
// attention form, its backward form takes one batch item with all heads and
// rebuilds P with the forward form's own code; every other shape runs per
// (batch item, head), the head's slices gathered into contiguous scratch, P
// rebuilt per row block and the gradients scattered back. Either way each
// item accumulates in a fixed order, so the gradients are bitwise
// deterministic. An item whose keys are all
// excluded gets dQ = dK = 0. dq is [batch, lq, heads*dk] even when
// dims.shared_q (the caller sums it over the batch); dq/dkk/dv are fully
// overwritten.
void FusedAttentionBackward(const float* q, const float* k, const float* v,
                            const float* key_mask, const float* dout,
                            float* dq, float* dkk, float* dv,
                            const AttentionDims& dims, float scale);

}  // namespace sstban::tensor

#endif  // SSTBAN_TENSOR_FUSED_ATTENTION_H_
