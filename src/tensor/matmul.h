#ifndef SSTBAN_TENSOR_MATMUL_H_
#define SSTBAN_TENSOR_MATMUL_H_

#include "tensor/tensor.h"

namespace sstban::tensor {

// Dense matrix product of rank-2 tensors: [M, K] x [K, N] -> [M, N].
Tensor Matmul(const Tensor& a, const Tensor& b);

// Batched matrix product of rank-3 tensors with shared batch size:
// [B, M, K] x [B, K, N] -> [B, M, N]. When transpose_a / transpose_b are
// set the corresponding operand's trailing two axes are treated as
// transposed (so a is [B, K, M] and/or b is [B, N, K]); the flags avoid
// materializing transposed copies in attention kernels and backward passes.
Tensor Bmm(const Tensor& a, const Tensor& b, bool transpose_a = false,
           bool transpose_b = false);

// Accumulates rows [i0, i1) of C += op(A) x op(B) for the *logical* problem
// (m, k, n, ta, tb) without touching the other rows. Block-pointer
// convention: `a_block` points at logical element A(i0, 0) — row i0 of a
// row-major A ([M, K], so callers can hand in a scratch tile that only holds
// those rows), column i0 of a transposed one (stored [K, M]) — and
// `c_block` at row i0 of C; both use the full strides (k or m for A, n for
// C). C rows must already hold the values to accumulate onto (zero-fill for
// a plain product).
//
// Kernel routing is decided from the full (m, k, n, ta, tb) shape — not the
// row count i1 - i0 — so the per-row arithmetic is bitwise identical to a
// Matmul or Bmm of the whole problem. This is what lets the fused attention
// kernel (tensor/fused_attention.h) stream row blocks through scratch while
// matching the unfused Bmm chain bit for bit.
void GemmRowRangeAccumulate(const float* a_block, const float* b,
                            float* c_block, int64_t m, int64_t k, int64_t n,
                            bool ta, bool tb, int64_t i0, int64_t i1);

}  // namespace sstban::tensor

#endif  // SSTBAN_TENSOR_MATMUL_H_
