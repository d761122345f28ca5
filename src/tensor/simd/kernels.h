#ifndef SSTBAN_TENSOR_SIMD_KERNELS_H_
#define SSTBAN_TENSOR_SIMD_KERNELS_H_

#include <cstdint>

#include "core/cpu_features.h"

namespace sstban::tensor::simd {

// Runtime-dispatched kernel table (DESIGN.md §14). One table is selected for
// the whole process from core::ActiveSimdLevel(); it holds the kernels whose
// arithmetic or speed depends on the tier (the GEMMs, the softmax pieces and
// the attention forms). Elementwise ops round once per element, so they are
// plain loops in tensor/ops.cc that give the same bits on every tier. Two
// invariants make this safe under the repo's bitwise determinism contracts:
//   1. The table choice is a process-wide constant — kernel routing never
//      depends on the calling thread or call site.
//   2. Every kernel processes its elements in a fixed order that depends
//      only on the problem shape, and runs on the thread that calls it,
//      keeping any scratch thread_local, so concurrent callers (one per
//      batch item) get the bits a lone call gets.
// Results *across* tables differ (FMA contraction, vectorized exp); a given
// process never mixes tables, so each mode is self-consistent.

// Tiled-GEMM micro-kernel, reading both operands where they lie:
//   C[r][j] += sum_p a[r*rsa + p*csa] * b[p*ldb + j]
// for r < mr, j < nc, p < kc, with C row r at c + r*ldc. A row-major A
// passes (rsa, csa) = (lda, 1), a transposed one (1, lda); B's rows are
// contiguous at stride ldb. This signature is for a full-height
// (mr == gemm_mr) tile. Each C element accumulates ascending-p.
using GemmTileFn = void (*)(const float* a, int64_t rsa, int64_t csa,
                            const float* b, int64_t ldb, float* c,
                            int64_t ldc, int64_t kc, int64_t nc);
// Remainder tile with runtime height 1 <= mr < gemm_mr.
using GemmTailFn = void (*)(const float* a, int64_t rsa, int64_t csa,
                            const float* b, int64_t ldb, float* c,
                            int64_t ldc, int64_t kc, int64_t nc, int64_t mr);

// Attention-shape GEMMs: the small-inner-dimension problems UseTiledPath
// (matmul.cc) keeps out of the tiled path. gemm_nt_small is
// C[M,N] += A[M,K] * B[N,K]^T (attention scores QK^T, K = head_dim);
// gemm_nn_small is C[M,N] += A[M,K] * B[K,N] (context P*V, N = head_dim).
// Every C element accumulates its K contributions in ascending order.
using GemmSmallFn = void (*)(const float* a, const float* b, float* c,
                             int64_t m, int64_t k, int64_t n);

// Max over n elements (n >= 1).
using ReduceMaxFn = float (*)(const float* a, int64_t n);
// o[i] = exp(a[i] - m); returns sum of the written values in double, summed
// in ascending order (scalar) or a fixed lane order (vector).
using ExpSumFn = double (*)(const float* a, float m, float* o, int64_t n);
// Full numerically-stable softmax of one row; in == out allowed.
using SoftmaxRowFn = void (*)(const float* in, float* out, int64_t n);

// One batch item of multi-head attention in the projections' own layout:
// q [lq, heads*dk], k and v [lk, heads*dk] and out [lq, heads*dk], row-major,
// with head j in columns [j*dk, (j+1)*dk). `keep` is null or the item's lk
// key-mask values (> 0.5f keeps a key).
struct AttentionItem {
  const float* q;
  const float* k;
  const float* v;
  const float* keep;
  float* out;
  int64_t heads, lq, lk, dk;
  float scale;
};
// A shape-specialized attention form (tensor/fused_attention.cc chooses
// which one runs). It must reproduce the tier's unfused
// Bmm -> MulScalar -> Add(mask) -> Softmax -> Bmm chain element for element.
using AttentionFormFn = void (*)(const AttentionItem& item);

// One batch item's attention gradients in the same layout: `item` holds the
// forward's operands (its `out` is unused), `dout` the gradient of out
// [lq, heads*dk]; dq [lq, heads*dk], dkk and dv [lk, heads*dk] are
// overwritten.
struct AttentionGradItem {
  AttentionItem item;
  const float* dout;
  float* dq;
  float* dkk;
  float* dv;
};
// The backward of an attention form. It recomputes P with its forward's own
// score and softmax code, so P is the forward's bit for bit, then
//   dV = P^T dOut, dP = dOut V^T, dS = P o (dP - rowsum(dP o P)) * scale,
//   dQ = dS K, dK = dS^T Q,
// each summed in a fixed order within the item. An item whose keys are all
// excluded gets dQ = dK = 0 (its rows are uniform whatever Q and K are).
using AttentionBackwardFn = void (*)(const AttentionGradItem& grad);

struct SimdKernels {
  const char* name;
  int64_t gemm_mr;  // full micro-tile height the tiled path uses
  GemmTileFn gemm_tile;
  GemmTailFn gemm_tail;
  GemmSmallFn gemm_nt_small;
  GemmSmallFn gemm_nn_small;
  ReduceMaxFn reduce_max;
  ExpSumFn exp_sum;
  SoftmaxRowFn softmax_row;
  // Attention forms for head_dim <= 8 and at most 512 keys, each with its
  // backward; all null in a tier without them, which then runs the
  // row-block path for every shape in both directions.
  AttentionFormFn attention_absorb;     // few queries (lq <= 8)
  AttentionFormFn attention_broadcast;  // short key rows (lk <= 16)
  AttentionBackwardFn attention_absorb_backward;
  AttentionBackwardFn attention_broadcast_backward;
};

// Table for the process-wide active level (resolved once, then cached by
// the caller-side of hot loops; cheap enough to call per op).
const SimdKernels& Kernels();

// Table for an explicit level — bench/test comparisons only.
const SimdKernels& KernelsFor(core::SimdLevel level);

namespace internal {
const SimdKernels& ScalarKernels();
// nullptr when the AVX2 translation unit is compiled out (non-x86 builds).
const SimdKernels* Avx2Kernels();
}  // namespace internal

}  // namespace sstban::tensor::simd

#endif  // SSTBAN_TENSOR_SIMD_KERNELS_H_
