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

// Raw-pointer entry point into the same batched GEMM driver that Matmul and
// Bmm use: zero-fills `c` ([batch, m, n] contiguous) and accumulates
// A ([batch, m, k] or [batch, k, m] when ta) x B ([batch, k, n] or
// [batch, n, k] when tb) into it. `a_stride` / `b_stride` are per-batch
// element strides (pass 0 to reuse one operand across the batch). Kernel
// routing and partitioning depend only on (m, k, n, ta, tb), so results are
// bitwise-identical to Matmul/Bmm on the same operands.
void GemmBatchedInto(const float* a, const float* b, float* c, int64_t batch,
                     int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                     int64_t a_stride, int64_t b_stride);

// Accumulates rows [i0, i1) of C += op(A) x op(B) for the *logical* problem
// (m, k, n, ta, tb) without touching the other rows. Block-pointer
// convention: `a_block` points at logical row i0 of A (so callers can hand
// in a scratch tile that only holds those rows) and `c_block` points at row
// i0 of C; both use the full row strides (k and n). `ta` requires i0 == 0
// and a_block == the full stored [K, M] matrix. C rows must already hold
// the values to accumulate onto (zero-fill for a plain product).
//
// Kernel routing is decided from the full (m, k, n, ta, tb) shape — not the
// row count i1 - i0 — so the per-row arithmetic is bitwise identical to a
// GemmBatchedInto of the whole problem. This is what lets the fused
// attention kernel (tensor/fused_attention.h) stream row blocks through
// scratch while matching the unfused Bmm chain bit for bit.
void GemmRowRangeAccumulate(const float* a_block, const float* b,
                            float* c_block, int64_t m, int64_t k, int64_t n,
                            bool ta, bool tb, int64_t i0, int64_t i1);

// The row-block granule GemmBatchedInto partitions M into (and the natural
// `i1 - i0` to pass to GemmRowRangeAccumulate when mirroring it).
inline constexpr int64_t kGemmRowBlock = 64;

}  // namespace sstban::tensor

#endif  // SSTBAN_TENSOR_MATMUL_H_
