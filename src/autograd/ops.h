#ifndef SSTBAN_AUTOGRAD_OPS_H_
#define SSTBAN_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace sstban::autograd {

// Differentiable counterparts of the tensor layer. Each op computes its
// forward value eagerly and, when gradients are enabled and any input
// requires them, records a backward closure on the graph. The closure keeps
// only the tensors its formula reads (DESIGN.md §9.4). Elementwise binary
// ops broadcast under NumPy rules (their backward reduces gradients back to
// the operand shapes).

// -- Elementwise binary -------------------------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// -- Scalar ---------------------------------------------------------------
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

// -- Elementwise unary --------------------------------------------------------
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Abs(const Variable& a);
Variable Square(const Variable& a);
Variable Relu(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);

// -- Matrix products ----------------------------------------------------------
// [M, K] x [K, N] -> [M, N].
Variable Matmul(const Variable& a, const Variable& b);
// Batched [B, M, K] x [B, K, N] -> [B, M, N]; transpose flags apply to the
// trailing two axes (see tensor::Bmm).
Variable Bmm(const Variable& a, const Variable& b, bool transpose_a = false,
             bool transpose_b = false);

// -- Shape / movement ----------------------------------------------------
Variable Reshape(const Variable& a, tensor::Shape new_shape);
Variable Permute(const Variable& a, const std::vector<int>& perm);
Variable Concat(const std::vector<Variable>& parts, int axis);
Variable Slice(const Variable& a, int axis, int64_t start, int64_t length);

// -- Reductions -----------------------------------------------------------
Variable Sum(const Variable& a, int axis, bool keepdim = false);
Variable Mean(const Variable& a, int axis, bool keepdim = false);
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

// -- Softmax --------------------------------------------------------------
// Numerically stable softmax along the last axis. To exclude keys, add large
// negative entries (e.g. -1e9) first: Softmax(Add(scores, additive_mask)).
Variable Softmax(const Variable& a);

// -- Fused attention ------------------------------------------------------
// Multi-head softmax(scale * q k^T + mask) v in one streaming pass, on the
// projections' own layout: q [B or 1, Lq, heads*dk] (a batch-1 q is shared by
// every batch item), k/v [B, Lk, heads*dk] -> [B, Lq, heads*dk], head j in
// columns [j*dk, (j+1)*dk). No score tensor and no head split/merge copy is
// made (tensor/fused_attention.h; bitwise-identical to the unfused chain on
// the head-split operands). The only attention MultiHeadAttention records,
// for training and serving alike.
// `key_mask` is an optional [B, Lk] keep mask constant (no grad flows into
// it); backward recomputes the probabilities per (item, head, row block).
Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, const tensor::Tensor* key_mask,
                        int64_t heads, float scale);

// -- Embedding / gather -----------------------------------------------------
// Selects rows of `weight` ([V, d]) by index: result [indices.size(), d].
// Backward scatter-adds into the weight gradient.
Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& indices);

// -- Temporal convolution -----------------------------------------------------
// 1-D "valid" convolution along the middle (time) axis.
//   input  [B, T, C_in], weight [K, C_in, C_out], optional bias [C_out]
//   output [B, T - (K-1)*dilation, C_out]
// Used by the dilated-TCN baselines (Graph WaveNet, DMSTGCN).
Variable Conv1dTime(const Variable& input, const Variable& weight,
                    const Variable& bias, int64_t dilation = 1);

// -- Losses ---------------------------------------------------------------
// Mean absolute error over all elements.
Variable MaeLoss(const Variable& pred, const Variable& target);
// Mean squared error over all elements.
Variable MseLoss(const Variable& pred, const Variable& target);

}  // namespace sstban::autograd

#endif  // SSTBAN_AUTOGRAD_OPS_H_
