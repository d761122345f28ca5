#include "tensor/matmul.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "tensor/simd/kernels.h"

namespace sstban::tensor {

namespace {

// ---------------------------------------------------------------------------
// Shape thresholds and tile sizes.
//
// Every dispatch decision below depends only on the GEMM's shape, so a
// given problem always takes the same arithmetic path, and every C element
// adds its k products in ascending order onto the value already in C,
// whichever rows a call covers. This makes results bitwise identical
// run-to-run and on whichever thread calls the kernel.
// ---------------------------------------------------------------------------

// Cache-blocking extents: one kKC x kNC block of B (at most 256 KiB) stays
// resident in L2 while the micro-kernel streams A and C past it.
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 256;
// Below this many multiply-adds a row-major-A GEMM runs the tier's
// small-shape kernels (the tiled path's per-tile set-up dominates).
constexpr int64_t kTiledMaddCutoff = 1 << 13;

// ---------------------------------------------------------------------------
// Tiled path. The micro-kernel reads A and B where they lie; only a
// transposed B is copied, into a row-major panel.
// ---------------------------------------------------------------------------

// Copies the logical panel B[p0:p0+kc, j0:j0+nc] of a stored [N, K] matrix
// (row stride `ldb` = k) into dst[kc][nc] row-major.
void TransposeBPanel(const float* b, int64_t ldb, int64_t p0, int64_t j0,
                     int64_t kc, int64_t nc, float* dst) {
  for (int64_t p = 0; p < kc; ++p) {
    float* drow = dst + p * nc;
    const float* src = b + j0 * ldb + (p0 + p);
    for (int64_t j = 0; j < nc; ++j) drow[j] = src[j * ldb];
  }
}

// Per-thread transposed-B panel, reused across GEMM calls.
thread_local std::vector<float> tl_bpanel;

// Accumulates `rows` rows of C += A x op(B), reading A(r, p) at
// a[r * rsa + p * csa] ((k, 1) for a row-major A, (1, m) for a transposed
// one) and writing C row r at c + r * n. The loop nest is j-panel > k-panel
// > row-strip, so each C element accumulates its k contributions strictly
// in ascending order. The micro-kernel comes from the process-wide SIMD
// dispatch table (tensor/simd/kernels.h); its tile height is a constant of
// the active tier. The steady-state loop only ever issues full-height tiles
// — the sub-tile remainder (at most one per call) runs once after it,
// keeping the per-iteration height branch out of the hot loop.
void TiledRows(const float* a, int64_t rsa, int64_t csa, const float* b,
               bool tb, float* c, int64_t rows, int64_t k, int64_t n) {
  const simd::SimdKernels& ks = simd::Kernels();
  const int64_t mr = ks.gemm_mr;
  const int64_t ldb = tb ? k : n;
  if (tb && tl_bpanel.size() < static_cast<size_t>(kKC * kNC)) {
    tl_bpanel.resize(kKC * kNC);
  }
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    int64_t nc = std::min(kNC, n - j0);
    for (int64_t p0 = 0; p0 < k; p0 += kKC) {
      int64_t kc = std::min(kKC, k - p0);
      const float* bp = b + p0 * ldb + j0;
      int64_t ldbp = ldb;
      if (tb) {
        TransposeBPanel(b, ldb, p0, j0, kc, nc, tl_bpanel.data());
        bp = tl_bpanel.data();
        ldbp = nc;
      }
      const float* ap = a + p0 * csa;
      float* cp = c + j0;
      int64_t r = 0;
      for (; r + mr <= rows; r += mr) {
        ks.gemm_tile(ap + r * rsa, rsa, csa, bp, ldbp, cp + r * n, n, kc, nc);
      }
      if (r < rows) {
        ks.gemm_tail(ap + r * rsa, rsa, csa, bp, ldbp, cp + r * n, n, kc, nc,
                     rows - r);
      }
    }
  }
}

// Whether a row-major-A GEMM takes the tiled path. The register-blocked
// small-shape kernels still win below the cutoff and on the degenerate inner
// dimensions attention produces (n <= 8, or k <= 8 with B transposed).
bool UseTiledPath(int64_t m, int64_t k, int64_t n, bool tb) {
  return m * k * n >= kTiledMaddCutoff && (tb ? k : n) > 8;
}

}  // namespace

// The one GEMM driver: Matmul and Bmm run each product whole through it. A
// transposed A always takes the micro-kernel, which reads any row range of
// it in place; a row-major A takes the micro-kernel when UseTiledPath says
// so and the tier's small-shape kernels otherwise. The route depends only on
// the full (m, k, n, ta, tb) problem, not on the row range.
void GemmRowRangeAccumulate(const float* a_block, const float* b,
                            float* c_block, int64_t m, int64_t k, int64_t n,
                            bool ta, bool tb, int64_t i0, int64_t i1) {
  const int64_t rows = i1 - i0;
  if (rows <= 0 || n == 0) return;
  if (ta) {
    TiledRows(a_block, /*rsa=*/1, /*csa=*/m, b, tb, c_block, rows, k, n);
  } else if (UseTiledPath(m, k, n, tb)) {
    TiledRows(a_block, /*rsa=*/k, /*csa=*/1, b, tb, c_block, rows, k, n);
  } else if (tb) {
    simd::Kernels().gemm_nt_small(a_block, b, c_block, rows, k, n);
  } else {
    simd::Kernels().gemm_nn_small(a_block, b, c_block, rows, k, n);
  }
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  SSTBAN_CHECK_EQ(a.rank(), 2);
  SSTBAN_CHECK_EQ(b.rank(), 2);
  int64_t m = a.dim(0), k = a.dim(1);
  SSTBAN_CHECK_EQ(b.dim(0), k)
      << "matmul inner dims:" << a.shape().ToString() << "x" << b.shape().ToString();
  int64_t n = b.dim(1);
  // Zeroed on purpose (pool-side AllocateZeroed): every kernel below
  // accumulates into C, so Tensor::Empty would read garbage.
  Tensor out = Tensor::Zeros(Shape{m, n});
  GemmRowRangeAccumulate(a.data(), b.data(), out.data(), m, k, n,
                         /*ta=*/false, /*tb=*/false, 0, m);
  return out;
}

Tensor Bmm(const Tensor& a, const Tensor& b, bool transpose_a,
           bool transpose_b) {
  SSTBAN_CHECK_EQ(a.rank(), 3);
  SSTBAN_CHECK_EQ(b.rank(), 3);
  int64_t batch = a.dim(0);
  SSTBAN_CHECK_EQ(b.dim(0), batch);
  int64_t m = transpose_a ? a.dim(2) : a.dim(1);
  int64_t k = transpose_a ? a.dim(1) : a.dim(2);
  int64_t kb = transpose_b ? b.dim(2) : b.dim(1);
  int64_t n = transpose_b ? b.dim(1) : b.dim(2);
  SSTBAN_CHECK_EQ(k, kb) << "bmm inner dims:" << a.shape().ToString() << "x"
                         << b.shape().ToString();
  // Zeroed on purpose: the GEMM kernels accumulate into C.
  Tensor out = Tensor::Zeros(Shape{batch, m, n});
  for (int64_t bi = 0; bi < batch; ++bi) {
    GemmRowRangeAccumulate(a.data() + bi * m * k, b.data() + bi * k * n,
                           out.data() + bi * m * n, m, k, n, transpose_a,
                           transpose_b, 0, m);
  }
  return out;
}

}  // namespace sstban::tensor
