#include <algorithm>
#include <cmath>

#include "tensor/simd/kernels.h"

// Portable fallback tier. These are the original hand loops from matmul.cc
// and the softmax of ops.cc, kept bit-for-bit: the scalar tier must
// reproduce the pre-SIMD numerics exactly so SSTBAN_SIMD=off doubles as the
// compatibility mode.

namespace sstban::tensor::simd {

namespace {

constexpr int64_t kScalarMR = 4;

// C[r][j] += sum_p A(r, p) * B[p][j] for an MR x nc tile, reading A at
// a[r*rsa + p*csa] and B's row p at b + p*ldb in place. Accumulates directly
// into C in ascending-p order so results never depend on how rows were
// blocked or on panel boundaries.
template <int MR>
void MicroKernel(const float* a, int64_t rsa, int64_t csa, const float* b,
                 int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t nc) {
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (int r = 0; r < MR; ++r) {
      float aval = a[r * rsa + p * csa];
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < nc; ++j) crow[j] += aval * brow[j];
    }
  }
}

void GemmTileScalar(const float* a, int64_t rsa, int64_t csa, const float* b,
                    int64_t ldb, float* c, int64_t ldc, int64_t kc,
                    int64_t nc) {
  MicroKernel<kScalarMR>(a, rsa, csa, b, ldb, c, ldc, kc, nc);
}

void GemmTailScalar(const float* a, int64_t rsa, int64_t csa, const float* b,
                    int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t nc,
                    int64_t mr) {
  switch (mr) {
    case 3: MicroKernel<3>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
    case 2: MicroKernel<2>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
    default: MicroKernel<1>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
  }
}

// ---------------------------------------------------------------------------
// Small-shape GEMMs: the original matmul.cc plain loops and their
// compile-time-unrolled variants for the head_dim / reference-point sized
// inner dimensions attention produces, moved here verbatim so this tier
// keeps the pre-SIMD numerics bit for bit.
// ---------------------------------------------------------------------------

// C[M,N] += A[M,K] * B[K,N], all row-major contiguous. i-k-j loop order:
// the inner j-loop streams both B's row and C's row, which vectorizes well.
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      float aval = arow[p];
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

// C[M,N] += A[M,K] * B[N,K]^T. The inner loop is a contiguous dot product
// over K for both operands (the natural layout for Q*K^T attention scores).
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

template <int K>
void GemmNTFixedK(const float* a, const float* b, float* c, int64_t m,
                  int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * K;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * K;
      float acc = 0.0f;
      for (int p = 0; p < K; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

template <int N>
void GemmNNFixedN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float acc[N] = {};
    for (int64_t p = 0; p < k; ++p) {
      float aval = arow[p];
      const float* brow = b + p * N;
      for (int j = 0; j < N; ++j) acc[j] += aval * brow[j];
    }
    float* crow = c + i * N;
    for (int j = 0; j < N; ++j) crow[j] += acc[j];
  }
}

void GemmNTSmall(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  switch (k) {
    case 1: GemmNTFixedK<1>(a, b, c, m, n); return;
    case 2: GemmNTFixedK<2>(a, b, c, m, n); return;
    case 3: GemmNTFixedK<3>(a, b, c, m, n); return;
    case 4: GemmNTFixedK<4>(a, b, c, m, n); return;
    case 6: GemmNTFixedK<6>(a, b, c, m, n); return;
    case 8: GemmNTFixedK<8>(a, b, c, m, n); return;
    default: GemmNT(a, b, c, m, k, n); return;
  }
}

void GemmNNSmall(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  switch (n) {
    case 1: GemmNNFixedN<1>(a, b, c, m, k); return;
    case 2: GemmNNFixedN<2>(a, b, c, m, k); return;
    case 3: GemmNNFixedN<3>(a, b, c, m, k); return;
    case 4: GemmNNFixedN<4>(a, b, c, m, k); return;
    case 6: GemmNNFixedN<6>(a, b, c, m, k); return;
    case 8: GemmNNFixedN<8>(a, b, c, m, k); return;
    default: GemmNN(a, b, c, m, k, n); return;
  }
}

float ReduceMax(const float* a, int64_t n) {
  float m = a[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, a[i]);
  return m;
}

double ExpSum(const float* a, float m, float* o, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    o[i] = std::exp(a[i] - m);
    sum += o[i];
  }
  return sum;
}

void SoftmaxRow(const float* in, float* out, int64_t n) {
  float m = ReduceMax(in, n);
  double denom = ExpSum(in, m, out, n);
  float inv = static_cast<float>(1.0 / denom);
  for (int64_t i = 0; i < n; ++i) out[i] *= inv;
}

}  // namespace

namespace internal {

const SimdKernels& ScalarKernels() {
  static const SimdKernels table = {
      /*name=*/"scalar",
      /*gemm_mr=*/kScalarMR,
      /*gemm_tile=*/GemmTileScalar,
      /*gemm_tail=*/GemmTailScalar,
      /*gemm_nt_small=*/GemmNTSmall,
      /*gemm_nn_small=*/GemmNNSmall,
      /*reduce_max=*/ReduceMax,
      /*exp_sum=*/ExpSum,
      /*softmax_row=*/SoftmaxRow,
      // The scalar tier keeps calling the entries above per attention item.
      /*attention_absorb=*/nullptr,
      /*attention_broadcast=*/nullptr,
      /*attention_absorb_backward=*/nullptr,
      /*attention_broadcast_backward=*/nullptr,
  };
  return table;
}

}  // namespace internal

const SimdKernels& KernelsFor(core::SimdLevel level) {
  if (level == core::SimdLevel::kAvx2) {
    const SimdKernels* avx2 = internal::Avx2Kernels();
    if (avx2 != nullptr) return *avx2;
  }
  return internal::ScalarKernels();
}

const SimdKernels& Kernels() { return KernelsFor(core::ActiveSimdLevel()); }

}  // namespace sstban::tensor::simd
