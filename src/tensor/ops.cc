#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/check.h"
#include "tensor/simd/kernels.h"

namespace sstban::tensor {

namespace {

// `b`'s dims equal the trailing dims of `a`'s (e.g. a Linear bias [n] onto
// [M, n]): every row of a meets all of b.
bool IsTrailingSuffix(const Shape& b, const Shape& a) {
  if (b.rank() > a.rank()) return false;
  int offset = a.rank() - b.rank();
  for (int i = 0; i < b.rank(); ++i) {
    if (b.dims()[i] != a.dims()[offset + i]) return false;
  }
  return true;
}

// Strides for iterating `shape` as if broadcast to `out_shape`: broadcast
// axes get stride 0.
std::vector<int64_t> BroadcastStrides(const Shape& shape, const Shape& out_shape) {
  std::vector<int64_t> natural = shape.Strides();
  std::vector<int64_t> strides(out_shape.rank(), 0);
  int offset = out_shape.rank() - shape.rank();
  for (int i = 0; i < shape.rank(); ++i) {
    strides[offset + i] = shape.dims()[i] == 1 ? 0 : natural[i];
  }
  return strides;
}

// Every binary op runs here, `fn` inlined into one plain loop per path that
// the compiler vectorizes for the build's ISA. Each element is rounded once
// (one add, multiply or divide), so every path and every SIMD tier gives
// the same bits as the naive loop.
template <typename BinaryFn>
Tensor BinaryOp(const Tensor& a, const Tensor& b, BinaryFn fn) {
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Empty(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    int64_t n = out.size();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
    return out;
  }
  // Fast path: b is a scalar. Only valid when the broadcast result shape
  // equals a's shape, i.e. b does not carry extra leading axes.
  if (b.size() == 1 && b.rank() <= a.rank()) {
    float s = b.data()[0];
    Tensor out = Tensor::Empty(a.shape());
    const float* pa = a.data();
    float* po = out.data();
    int64_t n = out.size();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], s);
    return out;
  }
  if (a.size() == 1 && a.rank() <= b.rank()) {
    float s = a.data()[0];
    Tensor out = Tensor::Empty(b.shape());
    const float* pb = b.data();
    float* po = out.data();
    int64_t n = out.size();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(s, pb[i]);
    return out;
  }
  // Fast path: b is a trailing suffix of a, row by row. b.size() > 0 keeps
  // the row count's division defined.
  if (b.size() > 0 && IsTrailingSuffix(b.shape(), a.shape())) {
    Tensor out = Tensor::Empty(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t cols = b.size();
    const int64_t rows = a.size() / cols;
    for (int64_t r = 0; r < rows; ++r) {
      const float* ra = pa + r * cols;
      float* ro = po + r * cols;
      for (int64_t j = 0; j < cols; ++j) ro[j] = fn(ra[j], pb[j]);
    }
    return out;
  }
  // General broadcast path with odometer iteration.
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Empty(out_shape);
  std::vector<int64_t> sa = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> sb = BroadcastStrides(b.shape(), out_shape);
  int rank = out_shape.rank();
  std::vector<int64_t> index(rank, 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t offset_a = 0;
  int64_t offset_b = 0;
  int64_t n = out.size();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = fn(pa[offset_a], pb[offset_b]);
    // Advance the odometer from the last axis.
    for (int axis = rank - 1; axis >= 0; --axis) {
      ++index[axis];
      offset_a += sa[axis];
      offset_b += sb[axis];
      if (index[axis] < out_shape.dims()[axis]) break;
      offset_a -= sa[axis] * out_shape.dims()[axis];
      offset_b -= sb[axis] * out_shape.dims()[axis];
      index[axis] = 0;
    }
  }
  return out;
}

template <typename UnaryFn>
Tensor UnaryOp(const Tensor& a, UnaryFn fn) {
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = out.size();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

// Decomposes the shape around `axis` into (outer, axis_size, inner) so that
// flat index = (outer_i * axis_size + axis_i) * inner + inner_i.
void AxisGeometry(const Shape& shape, int axis, int64_t* outer, int64_t* mid,
                  int64_t* inner) {
  *outer = 1;
  *mid = shape.dims()[axis];
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape.dims()[i];
  for (int i = axis + 1; i < shape.rank(); ++i) *inner *= shape.dims()[i];
}

Shape ReducedShape(const Shape& shape, int axis, bool keepdim) {
  std::vector<int64_t> dims;
  for (int i = 0; i < shape.rank(); ++i) {
    if (i == axis) {
      if (keepdim) dims.push_back(1);
    } else {
      dims.push_back(shape.dims()[i]);
    }
  }
  return Shape(std::move(dims));
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x / y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(x); });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Sign(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}
Tensor Square(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x * x; });
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0 ? x : 0.0f; });
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}

Tensor SumAll(const Tensor& a) {
  const float* pa = a.data();
  double acc = 0.0;
  int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) acc += pa[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& a) {
  SSTBAN_CHECK_GT(a.size(), 0);
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.size()));
}

float MaxAll(const Tensor& a) {
  SSTBAN_CHECK_GT(a.size(), 0);
  const float* pa = a.data();
  float m = pa[0];
  int64_t n = a.size();
  for (int64_t i = 1; i < n; ++i) m = std::max(m, pa[i]);
  return m;
}

float MinAll(const Tensor& a) {
  SSTBAN_CHECK_GT(a.size(), 0);
  const float* pa = a.data();
  float m = pa[0];
  int64_t n = a.size();
  for (int64_t i = 1; i < n; ++i) m = std::min(m, pa[i]);
  return m;
}

Tensor Sum(const Tensor& a, int axis, bool keepdim) {
  axis = a.shape().CanonicalAxis(axis);
  int64_t outer, mid, inner;
  AxisGeometry(a.shape(), axis, &outer, &mid, &inner);
  Tensor out = Tensor::Empty(ReducedShape(a.shape(), axis, keepdim));
  const float* pa = a.data();
  float* po = out.data();
  // Each output sums its `mid` inputs into one double in ascending order.
  // Below about one vector of doubles per row, a block of accumulators
  // costs more to set up than it saves, so narrow rows (LayerNorm's row
  // means reduce the contiguous axis) keep one strided running sum per
  // output.
  constexpr int64_t kMinBlockedInner = 8;
  if (inner < kMinBlockedInner) {
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t in = 0; in < inner; ++in) {
        double acc = 0.0;
        for (int64_t m = 0; m < mid; ++m) {
          acc += pa[(o * mid + m) * inner + in];
        }
        po[o * inner + in] = static_cast<float>(acc);
      }
    }
    return out;
  }
  // Wide rows: the innermost loop walks the contiguous `inner` axis, one
  // stack block of accumulators at a time.
  constexpr int64_t kChunk = 256;
  double acc[kChunk];
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t in0 = 0; in0 < inner; in0 += kChunk) {
      const int64_t width = std::min(kChunk, inner - in0);
      std::fill_n(acc, width, 0.0);
      for (int64_t m = 0; m < mid; ++m) {
        const float* row = pa + (o * mid + m) * inner + in0;
        for (int64_t j = 0; j < width; ++j) acc[j] += row[j];
      }
      float* dst = po + o * inner + in0;
      for (int64_t j = 0; j < width; ++j) dst[j] = static_cast<float>(acc[j]);
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int axis, bool keepdim) {
  axis = a.shape().CanonicalAxis(axis);
  int64_t n = a.shape().dims()[axis];
  return MulScalar(Sum(a, axis, keepdim), 1.0f / static_cast<float>(n));
}

Tensor Max(const Tensor& a, int axis, bool keepdim) {
  axis = a.shape().CanonicalAxis(axis);
  int64_t outer, mid, inner;
  AxisGeometry(a.shape(), axis, &outer, &mid, &inner);
  SSTBAN_CHECK_GT(mid, 0);
  Tensor out = Tensor::Empty(ReducedShape(a.shape(), axis, keepdim));
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t in = 0; in < inner; ++in) {
      float m = pa[o * mid * inner + in];
      for (int64_t k = 1; k < mid; ++k) {
        m = std::max(m, pa[(o * mid + k) * inner + in]);
      }
      po[o * inner + in] = m;
    }
  }
  return out;
}

Tensor ReduceToShape(const Tensor& grad, const Shape& target) {
  if (grad.shape() == target) return grad;
  Tensor current = grad;
  // Collapse leading extra axes.
  while (current.rank() > target.rank()) {
    current = Sum(current, 0, /*keepdim=*/false);
  }
  // Sum over axes that were broadcast from size 1.
  for (int i = 0; i < target.rank(); ++i) {
    if (target.dims()[i] == 1 && current.shape().dims()[i] != 1) {
      current = Sum(current, i, /*keepdim=*/true);
    }
  }
  SSTBAN_CHECK(current.shape() == target)
      << "cannot reduce" << grad.shape().ToString() << "to" << target.ToString();
  return current;
}

Tensor Transpose(const Tensor& a) {
  SSTBAN_CHECK_EQ(a.rank(), 2);
  return Permute(a, {1, 0});
}

Tensor Permute(const Tensor& a, const std::vector<int>& perm) {
  SSTBAN_CHECK_EQ(static_cast<int>(perm.size()), a.rank());
  int rank = a.rank();
  std::vector<bool> seen(rank, false);
  std::vector<int64_t> new_dims(rank);
  for (int i = 0; i < rank; ++i) {
    SSTBAN_CHECK(perm[i] >= 0 && perm[i] < rank && !seen[perm[i]])
        << "invalid permutation";
    seen[perm[i]] = true;
    new_dims[i] = a.shape().dims()[perm[i]];
  }
  Tensor out = Tensor::Empty(Shape(new_dims));
  std::vector<int64_t> in_strides = a.shape().Strides();
  // Stride in the input for a unit step along each output axis.
  std::vector<int64_t> step(rank);
  for (int i = 0; i < rank; ++i) step[i] = in_strides[perm[i]];
  const float* pa = a.data();
  float* po = out.data();
  // Fast path: when the trailing axes are left in place the innermost run
  // is contiguous in both tensors, so rows can be block-copied (covers the
  // ubiquitous [0,2,1,3]-style attention reshuffles).
  int tail = 0;
  while (tail < rank && perm[rank - 1 - tail] == rank - 1 - tail) ++tail;
  if (tail > 0 && tail < rank) {
    int64_t run = 1;
    for (int i = rank - tail; i < rank; ++i) run *= new_dims[i];
    int outer_rank = rank - tail;
    std::vector<int64_t> index(outer_rank, 0);
    int64_t in_offset = 0;
    int64_t rows = out.size() / run;
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(po + r * run, pa + in_offset,
                  static_cast<size_t>(run) * sizeof(float));
      // Odometer over the outer output axes; step[] converts an increment
      // of output axis `axis` into an input-offset delta.
      for (int axis = outer_rank - 1; axis >= 0; --axis) {
        ++index[axis];
        in_offset += step[axis];
        if (index[axis] < new_dims[axis]) break;
        in_offset -= step[axis] * new_dims[axis];
        index[axis] = 0;
      }
    }
    return out;
  }
  std::vector<int64_t> index(rank, 0);
  int64_t in_offset = 0;
  int64_t n = out.size();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = pa[in_offset];
    for (int axis = rank - 1; axis >= 0; --axis) {
      ++index[axis];
      in_offset += step[axis];
      if (index[axis] < new_dims[axis]) break;
      in_offset -= step[axis] * new_dims[axis];
      index[axis] = 0;
    }
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  SSTBAN_CHECK(!parts.empty());
  axis = parts[0].shape().CanonicalAxis(axis);
  int rank = parts[0].rank();
  int64_t axis_total = 0;
  for (const Tensor& p : parts) {
    SSTBAN_CHECK_EQ(p.rank(), rank);
    for (int i = 0; i < rank; ++i) {
      if (i != axis) {
        SSTBAN_CHECK_EQ(p.shape().dims()[i], parts[0].shape().dims()[i]);
      }
    }
    axis_total += p.shape().dims()[axis];
  }
  std::vector<int64_t> out_dims = parts[0].shape().dims();
  out_dims[axis] = axis_total;
  Tensor out = Tensor::Empty(Shape(out_dims));
  int64_t outer, mid_unused, inner;
  AxisGeometry(out.shape(), axis, &outer, &mid_unused, &inner);
  float* po = out.data();
  int64_t axis_offset = 0;
  for (const Tensor& p : parts) {
    int64_t mid = p.shape().dims()[axis];
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * axis_total + axis_offset) * inner,
                  pp + o * mid * inner,
                  static_cast<size_t>(mid * inner) * sizeof(float));
    }
    axis_offset += mid;
  }
  return out;
}

Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length) {
  axis = a.shape().CanonicalAxis(axis);
  int64_t axis_size = a.shape().dims()[axis];
  SSTBAN_CHECK(start >= 0 && length >= 0 && start + length <= axis_size)
      << "slice [" << start << "," << (start + length) << ") out of range for axis size"
      << axis_size;
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[axis] = length;
  Tensor out = Tensor::Empty(Shape(out_dims));
  int64_t outer, mid, inner;
  AxisGeometry(a.shape(), axis, &outer, &mid, &inner);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * length * inner, pa + (o * mid + start) * inner,
                static_cast<size_t>(length * inner) * sizeof(float));
  }
  return out;
}

Tensor RepeatAxis(const Tensor& a, int axis, int64_t repeats) {
  axis = a.shape().CanonicalAxis(axis);
  SSTBAN_CHECK_EQ(a.shape().dims()[axis], 1)
      << "RepeatAxis requires size-1 axis";
  SSTBAN_CHECK_GE(repeats, 1);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[axis] = repeats;
  Tensor out = Tensor::Empty(Shape(std::move(out_dims)));
  int64_t outer, mid, inner;
  AxisGeometry(a.shape(), axis, &outer, &mid, &inner);
  const float* pa = a.data();
  float* po = out.data();
  size_t run_bytes = static_cast<size_t>(inner) * sizeof(float);
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = pa + o * inner;
    float* dst = po + o * repeats * inner;
    for (int64_t r = 0; r < repeats; ++r) {
      std::memcpy(dst + r * inner, src, run_bytes);
    }
  }
  return out;
}

Tensor Softmax(const Tensor& a) {
  SSTBAN_CHECK_GE(a.rank(), 1);
  int64_t cols = a.shape().dims()[a.rank() - 1];
  int64_t rows = a.size() / cols;
  Tensor out = Tensor::Empty(a.shape());
  const float* in = a.data();
  float* po = out.data();
  const simd::SoftmaxRowFn fn = simd::Kernels().softmax_row;
  for (int64_t r = 0; r < rows; ++r) fn(in + r * cols, po + r * cols, cols);
  return out;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    float tolerance = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tolerance) return false;
  }
  return true;
}

bool HasNonFinite(const Tensor& a) {
  const float* pa = a.data();
  int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(pa[i])) return true;
  }
  return false;
}

}  // namespace sstban::tensor
