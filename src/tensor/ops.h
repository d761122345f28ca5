#ifndef SSTBAN_TENSOR_OPS_H_
#define SSTBAN_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace sstban::tensor {

// All operations are purely functional: they allocate and return new tensors
// and never mutate their inputs. Binary operations broadcast under NumPy
// rules. Shape incompatibilities are programming errors (CHECK).

// -- Elementwise binary -------------------------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// -- Elementwise with scalar --------------------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// -- Elementwise unary --------------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  // natural log; input must be > 0
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);  // -1, 0, or +1
Tensor Square(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// -- Reductions ---------------------------------------------------------------
// Full reductions return a rank-0 (scalar) tensor.
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

// Axis reductions. `axis` may be negative. With keepdim the reduced axis has
// size 1, otherwise it is removed.
Tensor Sum(const Tensor& a, int axis, bool keepdim = false);
Tensor Mean(const Tensor& a, int axis, bool keepdim = false);
Tensor Max(const Tensor& a, int axis, bool keepdim = false);

// Sums a broadcasted tensor back down to `target` shape (the adjoint of
// broadcasting); used by autograd backward passes.
Tensor ReduceToShape(const Tensor& grad, const Shape& target);

// -- Movement -------------------------------------------------------------
// Swaps the two axes of a rank-2 tensor.
Tensor Transpose(const Tensor& a);
// General axis permutation; `perm` must be a permutation of [0, rank).
Tensor Permute(const Tensor& a, const std::vector<int>& perm);
// Concatenates along `axis`; all other dimensions must agree.
Tensor Concat(const std::vector<Tensor>& parts, int axis);
// Contiguous sub-range [start, start+length) along `axis`.
Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length);
// Repeats the tensor `repeats` times along an existing axis of size 1.
Tensor RepeatAxis(const Tensor& a, int axis, int64_t repeats);

// -- Softmax --------------------------------------------------------------
// Numerically stable softmax along the last axis. To exclude keys, add large
// negative entries (e.g. -1e9) first: Softmax(Add(a, additive_mask)); a row
// whose entries are all excluded degrades to a uniform distribution (no NaNs).
Tensor Softmax(const Tensor& a);

// -- Predicates -----------------------------------------------------------
// True when |a - b| <= atol + rtol * |b| elementwise (shapes must match).
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-5f);
bool HasNonFinite(const Tensor& a);

}  // namespace sstban::tensor

#endif  // SSTBAN_TENSOR_OPS_H_
