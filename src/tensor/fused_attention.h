#ifndef SSTBAN_TENSOR_FUSED_ATTENTION_H_
#define SSTBAN_TENSOR_FUSED_ATTENTION_H_

#include "tensor/tensor.h"

namespace sstban::tensor {

// Single-pass scaled-dot-product attention:
//   out = softmax(scale * Q K^T + mask) V
// with Q [batch, lq, dk], K/V [batch, lk, dk], out [batch, lq, dk]. The
// [batch, lq, lk] score tensor is never materialized; scores stream through
// a per-thread row-block scratch instead.
//
// Two regimes, switched on lk:
//   - lk <= kFusedAttentionExactMaxKeys: exact two-pass mode. Each 64-row
//     block runs scores -> scale -> mask-add -> softmax -> xV with the same
//     kernels, the same row-block boundaries (tensor/matmul.h kGemmRowBlock),
//     and the same per-element arithmetic as the unfused
//     Bmm/MulScalar/SoftmaxWithMask/Bmm chain, so the result is bitwise
//     identical to it.
//   - lk > kFusedAttentionExactMaxKeys: flash-style online softmax over key
//     blocks with a running (max, denom, accumulator) triple. Results agree
//     with the unfused chain only to rounding (see DESIGN.md §14 for the
//     tolerance policy) but each call is still bitwise deterministic at any
//     thread count: work items are independent (batch x row-block) and every
//     reduction is sequential within one item.
//
// `key_mask` is optional: when non-null it holds [batch / mask_heads, lk]
// keep rows (> 0.5f keeps a key) and the kernel applies the same
// `keep ? 0.0f : -1e9f` additive expansion the unfused path builds explicitly.
// Pass mask_heads = 1 when the mask batch matches the attention batch.

inline constexpr int64_t kFusedAttentionExactMaxKeys = 512;

void FusedAttentionInto(const float* q, const float* k, const float* v,
                        const float* key_mask, int64_t mask_heads, float* out,
                        int64_t batch, int64_t lq, int64_t lk, int64_t dk,
                        float scale);

// Tensor wrapper; `key_mask` may be null.
Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor* key_mask, int64_t mask_heads, float scale);

// Gradient by recomputation: probabilities are rebuilt per row block (exact
// softmax regardless of lk), then
//   dV += P^T dOut, dP = dOut V^T,
//   dS = P o (dP - rowsum(dP o P)) * scale,
//   dQ = dS K, dK += dS^T Q.
// Parallel over batch only, so the per-matrix accumulation order is fixed and
// the gradients are bitwise deterministic at any thread count. dq/dkk/dv are
// fully overwritten.
void FusedAttentionBackward(const float* q, const float* k, const float* v,
                            const float* key_mask, int64_t mask_heads,
                            const float* dout, float* dq, float* dkk,
                            float* dv, int64_t batch, int64_t lq, int64_t lk,
                            int64_t dk, float scale);

}  // namespace sstban::tensor

#endif  // SSTBAN_TENSOR_FUSED_ATTENTION_H_
