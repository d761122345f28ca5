#include "autograd/ops.h"

#include <cstring>
#include <utility>

#include "core/check.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace sstban::autograd {

namespace t = ::sstban::tensor;

namespace {

// Records an op node when grads are enabled and any input requires them;
// otherwise returns a detached result.
Variable MakeOp(const char* name, t::Tensor value,
                std::vector<Variable> inputs,
                std::function<void(Node&)> backward) {
  bool needs_grad = false;
  if (NoGradGuard::GradEnabled()) {
    for (const Variable& v : inputs) needs_grad = needs_grad || v.requires_grad();
  }
  auto node = std::make_shared<Node>(value.shape(), needs_grad, name);
  if (needs_grad) {
    node->parents.reserve(inputs.size());
    for (Variable& v : inputs) node->parents.push_back(v.node());
    node->backward_fn = std::move(backward);
  }
  return Variable(std::move(value), std::move(node));
}

void Accumulate(const NodePtr& parent, const t::Tensor& grad) {
  if (parent->requires_grad) SendGrad(*parent, grad);
}

// Expands `grad` (result of a keepdim reduction) back to `shape` by
// broadcasting-add against zeros.
t::Tensor ExpandTo(const t::Tensor& grad, const t::Shape& shape) {
  return t::Add(t::Tensor::Zeros(shape), grad);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  NodePtr na = a.node(), nb = b.node();
  return MakeOp("add", t::Add(a.value(), b.value()), {a, b}, [na, nb](Node& n) {
    Accumulate(na, t::ReduceToShape(n.grad, na->shape));
    Accumulate(nb, t::ReduceToShape(n.grad, nb->shape));
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  NodePtr na = a.node(), nb = b.node();
  return MakeOp("sub", t::Sub(a.value(), b.value()), {a, b}, [na, nb](Node& n) {
    Accumulate(na, t::ReduceToShape(n.grad, na->shape));
    Accumulate(nb, t::ReduceToShape(t::Neg(n.grad), nb->shape));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  NodePtr na = a.node(), nb = b.node();
  t::Tensor av = a.value(), bv = b.value();
  return MakeOp("mul", t::Mul(av, bv), {a, b}, [na, nb, av, bv](Node& n) {
    Accumulate(na, t::ReduceToShape(t::Mul(n.grad, bv), na->shape));
    Accumulate(nb, t::ReduceToShape(t::Mul(n.grad, av), nb->shape));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  NodePtr na = a.node(), nb = b.node();
  t::Tensor av = a.value(), bv = b.value();
  return MakeOp("div", t::Div(av, bv), {a, b}, [na, nb, av, bv](Node& n) {
    Accumulate(na, t::ReduceToShape(t::Div(n.grad, bv), na->shape));
    // d/db (a/b) = -a / b^2
    t::Tensor gb = t::Neg(t::Div(t::Mul(n.grad, av), t::Square(bv)));
    Accumulate(nb, t::ReduceToShape(gb, nb->shape));
  });
}

Variable AddScalar(const Variable& a, float s) {
  NodePtr na = a.node();
  return MakeOp("add_scalar", t::AddScalar(a.value(), s), {a},
                [na](Node& n) { Accumulate(na, n.grad); });
}

Variable MulScalar(const Variable& a, float s) {
  NodePtr na = a.node();
  return MakeOp("mul_scalar", t::MulScalar(a.value(), s), {a},
                [na, s](Node& n) { Accumulate(na, t::MulScalar(n.grad, s)); });
}

Variable Neg(const Variable& a) {
  NodePtr na = a.node();
  return MakeOp("neg", t::Neg(a.value()), {a},
                [na](Node& n) { Accumulate(na, t::Neg(n.grad)); });
}

Variable Exp(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor y = t::Exp(a.value());
  return MakeOp("exp", y, {a}, [na, y](Node& n) {
    Accumulate(na, t::Mul(n.grad, y));
  });
}

Variable Log(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor x = a.value();
  return MakeOp("log", t::Log(x), {a}, [na, x](Node& n) {
    Accumulate(na, t::Div(n.grad, x));
  });
}

Variable Sqrt(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor y = t::Sqrt(a.value());
  return MakeOp("sqrt", y, {a}, [na, y](Node& n) {
    // d sqrt(x) = 0.5 / sqrt(x)
    Accumulate(na, t::Div(t::MulScalar(n.grad, 0.5f), y));
  });
}

Variable Abs(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor x = a.value();
  return MakeOp("abs", t::Abs(x), {a}, [na, x](Node& n) {
    Accumulate(na, t::Mul(n.grad, t::Sign(x)));
  });
}

Variable Square(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor x = a.value();
  return MakeOp("square", t::Square(x), {a}, [na, x](Node& n) {
    Accumulate(na, t::Mul(n.grad, t::MulScalar(x, 2.0f)));
  });
}

Variable Relu(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor x = a.value();
  return MakeOp("relu", t::Relu(x), {a}, [na, x](Node& n) {
    t::Tensor gate = t::Tensor::Empty(x.shape());
    const float* px = x.data();
    float* pg = gate.data();
    for (int64_t i = 0; i < gate.size(); ++i) pg[i] = px[i] > 0 ? 1.0f : 0.0f;
    Accumulate(na, t::Mul(n.grad, gate));
  });
}

Variable Sigmoid(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor y = t::Sigmoid(a.value());
  return MakeOp("sigmoid", y, {a}, [na, y](Node& n) {
    // y * (1 - y)
    t::Tensor dy = t::Mul(y, t::AddScalar(t::Neg(y), 1.0f));
    Accumulate(na, t::Mul(n.grad, dy));
  });
}

Variable Tanh(const Variable& a) {
  NodePtr na = a.node();
  t::Tensor y = t::Tanh(a.value());
  return MakeOp("tanh", y, {a}, [na, y](Node& n) {
    // 1 - y^2
    t::Tensor dy = t::AddScalar(t::Neg(t::Square(y)), 1.0f);
    Accumulate(na, t::Mul(n.grad, dy));
  });
}

Variable Matmul(const Variable& a, const Variable& b) {
  NodePtr na = a.node(), nb = b.node();
  t::Tensor av = a.value(), bv = b.value();
  return MakeOp("matmul", t::Matmul(av, bv), {a, b}, [na, nb, av, bv](Node& n) {
    int64_t m = av.dim(0), k = av.dim(1), p = bv.dim(1);
    t::Tensor g3 = n.grad.Reshape(t::Shape{1, m, p});
    t::Tensor a3 = av.Reshape(t::Shape{1, m, k});
    t::Tensor b3 = bv.Reshape(t::Shape{1, k, p});
    Accumulate(na, t::Bmm(g3, b3, false, true).Reshape(t::Shape{m, k}));
    Accumulate(nb, t::Bmm(a3, g3, true, false).Reshape(t::Shape{k, p}));
  });
}

Variable Bmm(const Variable& a, const Variable& b, bool transpose_a,
             bool transpose_b) {
  NodePtr na = a.node(), nb = b.node();
  t::Tensor av = a.value(), bv = b.value();
  return MakeOp("bmm", t::Bmm(av, bv, transpose_a, transpose_b), {a, b},
                [na, nb, av, bv, transpose_a, transpose_b](Node& n) {
    const t::Tensor& g = n.grad;
    t::Tensor ga, gb;
    if (!transpose_a) {
      ga = transpose_b ? t::Bmm(g, bv, false, false) : t::Bmm(g, bv, false, true);
    } else {
      ga = transpose_b ? t::Bmm(bv, g, true, true) : t::Bmm(bv, g, false, true);
    }
    if (!transpose_b) {
      gb = transpose_a ? t::Bmm(av, g, false, false) : t::Bmm(av, g, true, false);
    } else {
      gb = transpose_a ? t::Bmm(g, av, true, true) : t::Bmm(g, av, true, false);
    }
    Accumulate(na, ga);
    Accumulate(nb, gb);
  });
}

Variable Reshape(const Variable& a, t::Shape new_shape) {
  NodePtr na = a.node();
  return MakeOp("reshape", a.value().Reshape(std::move(new_shape)), {a},
                [na](Node& n) { Accumulate(na, n.grad.Reshape(na->shape)); });
}

Variable Permute(const Variable& a, const std::vector<int>& perm) {
  NodePtr na = a.node();
  std::vector<int> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = static_cast<int>(i);
  return MakeOp("permute", t::Permute(a.value(), perm), {a},
                [na, inverse](Node& n) {
    Accumulate(na, t::Permute(n.grad, inverse));
  });
}

Variable Concat(const std::vector<Variable>& parts, int axis) {
  SSTBAN_CHECK(!parts.empty());
  std::vector<t::Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  int canonical = parts[0].shape().CanonicalAxis(axis);
  std::vector<NodePtr> nodes;
  for (const Variable& p : parts) nodes.push_back(p.node());
  return MakeOp("concat", t::Concat(values, axis), parts,
                [nodes, canonical](Node& n) {
    int64_t offset = 0;
    for (const NodePtr& p : nodes) {
      int64_t length = p->shape.dims()[canonical];
      Accumulate(p, t::Slice(n.grad, canonical, offset, length));
      offset += length;
    }
  });
}

Variable Slice(const Variable& a, int axis, int64_t start, int64_t length) {
  NodePtr na = a.node();
  int canonical = a.shape().CanonicalAxis(axis);
  return MakeOp("slice", t::Slice(a.value(), axis, start, length), {a},
                [na, canonical, start, length](Node& n) {
    // Scatter the gradient back into a zero tensor of the input shape.
    t::Tensor full = t::Tensor::Zeros(na->shape);
    int64_t outer = 1, inner = 1;
    const auto& dims = na->shape.dims();
    for (int i = 0; i < canonical; ++i) outer *= dims[i];
    for (size_t i = canonical + 1; i < dims.size(); ++i) inner *= dims[i];
    int64_t mid = dims[canonical];
    const float* pg = n.grad.data();
    float* pf = full.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(pf + (o * mid + start) * inner, pg + o * length * inner,
                  static_cast<size_t>(length * inner) * sizeof(float));
    }
    Accumulate(na, full);
  });
}

Variable Sum(const Variable& a, int axis, bool keepdim) {
  NodePtr na = a.node();
  int canonical = a.shape().CanonicalAxis(axis);
  return MakeOp("sum", t::Sum(a.value(), axis, keepdim), {a},
                [na, canonical, keepdim](Node& n) {
    t::Tensor g = n.grad;
    if (!keepdim) {
      std::vector<int64_t> dims = na->shape.dims();
      dims[canonical] = 1;
      g = g.Reshape(t::Shape(dims));
    }
    Accumulate(na, ExpandTo(g, na->shape));
  });
}

Variable Mean(const Variable& a, int axis, bool keepdim) {
  int canonical = a.shape().CanonicalAxis(axis);
  float scale = 1.0f / static_cast<float>(a.shape().dims()[canonical]);
  return MulScalar(Sum(a, axis, keepdim), scale);
}

Variable SumAll(const Variable& a) {
  NodePtr na = a.node();
  return MakeOp("sum_all", t::SumAll(a.value()), {a}, [na](Node& n) {
    Accumulate(na, t::Tensor::Full(na->shape, n.grad.item()));
  });
}

Variable MeanAll(const Variable& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.size()));
}

Variable Softmax(const Variable& a) {
  t::Tensor y = t::Softmax(a.value());
  NodePtr na = a.node();
  return MakeOp("softmax", y, {a}, [na, y](Node& n) {
    // dX = Y * (G - sum(G * Y, last, keepdim))
    t::Tensor gy = t::Mul(n.grad, y);
    t::Tensor s = t::Sum(gy, -1, /*keepdim=*/true);
    Accumulate(na, t::Mul(y, t::Sub(n.grad, s)));
  });
}

Variable FusedAttention(const Variable& q, const Variable& k,
                        const Variable& v, const t::Tensor* key_mask,
                        int64_t heads, float scale) {
  t::AttentionDims dims =
      t::FusedAttentionDims(q.value(), k.value(), v.value(), key_mask, heads);
  t::Tensor value = t::Tensor::Empty(t::Shape{dims.batch, dims.lq, k.dim(2)});
  t::FusedAttentionInto(q.value().data(), k.value().data(), v.value().data(),
                        key_mask != nullptr ? key_mask->data() : nullptr,
                        value.data(), dims, scale);
  NodePtr nq = q.node(), nk = k.node(), nv = v.node();
  t::Tensor qv = q.value(), kv = k.value(), vv = v.value();
  // Copy the mask so the backward closure does not dangle if the caller's
  // tensor goes away before Backward runs.
  t::Tensor mask_copy = key_mask != nullptr ? *key_mask : t::Tensor();
  return MakeOp("fused_attention", std::move(value), {q, k, v},
                [nq, nk, nv, qv, kv, vv, mask_copy, dims, scale](Node& n) {
    // dQ per batch item; a shared query set sums it over the batch.
    t::Tensor gq = t::Tensor::Empty(n.shape);
    t::Tensor gk = t::Tensor::Empty(kv.shape());
    t::Tensor gv = t::Tensor::Empty(kv.shape());
    t::FusedAttentionBackward(
        qv.data(), kv.data(), vv.data(),
        mask_copy.defined() ? mask_copy.data() : nullptr, n.grad.data(),
        gq.data(), gk.data(), gv.data(), dims, scale);
    Accumulate(nq, dims.shared_q ? t::Sum(gq, 0, /*keepdim=*/true) : gq);
    Accumulate(nk, gk);
    Accumulate(nv, gv);
  });
}

Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& indices) {
  SSTBAN_CHECK_EQ(weight.rank(), 2);
  int64_t vocab = weight.dim(0);
  int64_t dim = weight.dim(1);
  int64_t n = static_cast<int64_t>(indices.size());
  t::Tensor out = t::Tensor::Empty(t::Shape{n, dim});
  const float* pw = weight.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    SSTBAN_CHECK(indices[i] >= 0 && indices[i] < vocab)
        << "embedding index" << indices[i] << "out of range" << vocab;
    std::memcpy(po + i * dim, pw + indices[i] * dim,
                static_cast<size_t>(dim) * sizeof(float));
  }
  NodePtr nw = weight.node();
  return MakeOp("embedding", out, {weight}, [nw, indices, dim](Node& n) {
    t::Tensor gw = t::Tensor::Zeros(nw->shape);
    const float* pg = n.grad.data();
    float* pgw = gw.data();
    for (size_t i = 0; i < indices.size(); ++i) {
      float* row = pgw + indices[i] * dim;
      const float* grow = pg + static_cast<int64_t>(i) * dim;
      for (int64_t d = 0; d < dim; ++d) row[d] += grow[d];
    }
    Accumulate(nw, gw);
  });
}

Variable Conv1dTime(const Variable& input, const Variable& weight,
                    const Variable& bias, int64_t dilation) {
  SSTBAN_CHECK_EQ(input.rank(), 3);
  SSTBAN_CHECK_EQ(weight.rank(), 3);
  SSTBAN_CHECK_GE(dilation, 1);
  int64_t batch = input.dim(0), time = input.dim(1), cin = input.dim(2);
  int64_t kernel = weight.dim(0), cout = weight.dim(2);
  SSTBAN_CHECK_EQ(weight.dim(1), cin);
  int64_t t_out = time - (kernel - 1) * dilation;
  SSTBAN_CHECK_GT(t_out, 0) << "conv1d: input too short (T=" << time
                            << ", K=" << kernel << ", dilation=" << dilation << ")";
  if (bias.defined()) {
    SSTBAN_CHECK_EQ(bias.rank(), 1);
    SSTBAN_CHECK_EQ(bias.dim(0), cout);
  }
  // Zeroed on purpose: rows accumulate across kernel taps (and start
  // from zero when there is no bias).
  t::Tensor out = t::Tensor::Zeros(t::Shape{batch, t_out, cout});
  const float* px = input.value().data();
  const float* pw = weight.value().data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t ti = 0; ti < t_out; ++ti) {
      float* orow = po + (b * t_out + ti) * cout;
      if (bias.defined()) {
        std::memcpy(orow, bias.value().data(),
                    static_cast<size_t>(cout) * sizeof(float));
      }
      for (int64_t k = 0; k < kernel; ++k) {
        const float* xrow = px + (b * time + ti + k * dilation) * cin;
        const float* wmat = pw + k * cin * cout;
        for (int64_t ci = 0; ci < cin; ++ci) {
          float xv = xrow[ci];
          if (xv == 0.0f) continue;
          const float* wrow = wmat + ci * cout;
          for (int64_t co = 0; co < cout; ++co) orow[co] += xv * wrow[co];
        }
      }
    }
  }
  NodePtr nx = input.node(), nw = weight.node();
  NodePtr nb = bias.defined() ? bias.node() : nullptr;
  t::Tensor xv = input.value(), wv = weight.value();
  std::vector<Variable> inputs = {input, weight};
  if (bias.defined()) inputs.push_back(bias);
  return MakeOp("conv1d_time", out, inputs,
                [nx, nw, nb, xv, wv, batch, time, cin, kernel, cout, t_out,
                 dilation](Node& n) {
    const float* pg = n.grad.data();
    const float* px = xv.data();
    const float* pw = wv.data();
    t::Tensor gx = t::Tensor::Zeros(xv.shape());
    t::Tensor gw = t::Tensor::Zeros(wv.shape());
    float* pgx = gx.data();
    float* pgw = gw.data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t ti = 0; ti < t_out; ++ti) {
        const float* grow = pg + (b * t_out + ti) * cout;
        for (int64_t k = 0; k < kernel; ++k) {
          int64_t src = ti + k * dilation;
          const float* xrow = px + (b * time + src) * cin;
          float* gxrow = pgx + (b * time + src) * cin;
          const float* wmat = pw + k * cin * cout;
          float* gwmat = pgw + k * cin * cout;
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* wrow = wmat + ci * cout;
            float* gwrow = gwmat + ci * cout;
            float xv = xrow[ci];
            double gx_acc = 0.0;
            for (int64_t co = 0; co < cout; ++co) {
              gx_acc += static_cast<double>(grow[co]) * wrow[co];
              gwrow[co] += grow[co] * xv;
            }
            gxrow[ci] += static_cast<float>(gx_acc);
          }
        }
      }
    }
    Accumulate(nx, gx);
    Accumulate(nw, gw);
    if (nb) {
      t::Tensor gb = t::Tensor::Zeros(nb->shape);
      float* pgb = gb.data();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t ti = 0; ti < t_out; ++ti) {
          const float* grow = pg + (b * t_out + ti) * cout;
          for (int64_t co = 0; co < cout; ++co) pgb[co] += grow[co];
        }
      }
      Accumulate(nb, gb);
    }
  });
}

Variable MaeLoss(const Variable& pred, const Variable& target) {
  return MeanAll(Abs(Sub(pred, target)));
}

Variable MseLoss(const Variable& pred, const Variable& target) {
  return MeanAll(Square(Sub(pred, target)));
}

}  // namespace sstban::autograd
