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
// given problem always takes the same arithmetic path. Combined with
// row-block partitioning (a C row is computed start-to-finish within one
// block, in ascending-k order), this makes results bitwise identical
// run-to-run and on whichever thread calls the kernel.
// ---------------------------------------------------------------------------

// Rows of C per block, so block boundaries are a pure function of M.
constexpr int64_t kRowBlock = kGemmRowBlock;
// Cache-blocking extents: one kKC x kNC block of B (at most 256 KiB) stays
// resident in L2 while the micro-kernel streams a row block's A and C.
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 256;
// Below this many multiply-adds per GEMM the tiled path loses to the plain
// loops (its per-tile set-up dominates).
constexpr int64_t kTiledMaddCutoff = 1 << 13;

// ---------------------------------------------------------------------------
// Small-shape kernels. The !ta variants (attention scores QK^T and context
// P*V, plus any problem under the tiled cutoff) live in the dispatched
// kernel table (simd/kernels.h) so the AVX2 tier can vectorize them; the
// transposed-A variants below only appear on backward paths and stay scalar.
// ---------------------------------------------------------------------------

// C[M,N] += A[K,M]^T * B[K,N].
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      float aval = arow[i];
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

// C[M,N] += A[K,M]^T * B[N,K]^T == (B*A)^T; computed directly.
void GemmTT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

void GemmDispatch(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, bool ta, bool tb) {
  if (!ta && !tb) {
    simd::Kernels().gemm_nn_small(a, b, c, m, k, n);
  } else if (!ta && tb) {
    simd::Kernels().gemm_nt_small(a, b, c, m, k, n);
  } else if (ta && !tb) {
    GemmTN(a, b, c, m, k, n);
  } else {
    GemmTT(a, b, c, m, k, n);
  }
}

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

// Computes C rows [i0, i1) of the full GEMM. The loop nest is j-panel >
// k-panel > row-strip, so each C element accumulates its k contributions
// strictly in ascending order. The micro-kernel comes from the process-wide
// SIMD dispatch table (tensor/simd/kernels.h); its tile height is a
// constant of the active tier, so strip boundaries stay a pure function of
// the shape. The steady-state loop only ever issues full-height tiles —
// the sub-tile remainder (at most one per row range) runs once after it,
// keeping the per-iteration height branch out of the hot loop.
//
// Pointer convention (see GemmRowRangeAccumulate): for !ta, `a` points at
// logical row i0 of A; for ta it is the full stored [K, M] matrix. `c`
// points at row i0 of C.
void TiledRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
               bool ta, bool tb, int64_t lda, int64_t ldb, int64_t i0,
               int64_t i1) {
  const simd::SimdKernels& ks = simd::Kernels();
  const int64_t mr_full = ks.gemm_mr;
  // Logical A(i0 + r, p) sits at a_i0[r * rsa + p * csa].
  const float* a_i0 = ta ? a + i0 : a;
  const int64_t rsa = ta ? 1 : lda;
  const int64_t csa = ta ? lda : 1;
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
      const float* ap = a_i0 + p0 * csa;
      int64_t i = i0;
      for (; i + mr_full <= i1; i += mr_full) {
        ks.gemm_tile(ap + (i - i0) * rsa, rsa, csa, bp, ldbp,
                     c + (i - i0) * n + j0, n, kc, nc);
      }
      if (i < i1) {
        ks.gemm_tail(ap + (i - i0) * rsa, rsa, csa, bp, ldbp,
                     c + (i - i0) * n + j0, n, kc, nc, i1 - i);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch and the batch x row-block driver.
// ---------------------------------------------------------------------------

bool UseTiledPath(int64_t m, int64_t k, int64_t n, bool ta, bool tb) {
  if (m * k * n < kTiledMaddCutoff) return false;
  // The register-blocked fixed-size kernels still win on the degenerate
  // inner dimensions attention produces; keep them for those shapes.
  if (!ta && !tb && n <= 8) return false;
  if (!ta && tb && k <= 8) return false;
  return true;
}

// Number of row blocks a single GEMM of this shape is split into. The legacy
// transposed-A kernels stride A by the full M, so they only run whole.
int64_t RowBlocksFor(int64_t m, int64_t k, int64_t n, bool ta, bool tb) {
  if (m == 0) return 1;
  if (!UseTiledPath(m, k, n, ta, tb) && ta) return 1;
  return (m + kRowBlock - 1) / kRowBlock;
}

// Computes C rows [i0, i1) for one GEMM, routing to the tiled or small-shape
// kernel. The route depends only on the full (m, k, n, ta, tb) problem, not
// on the row range, so every row takes the same code path regardless of how
// the work was partitioned. Block-pointer convention: for !ta, `a` points at
// logical row i0 of A; for ta it is the full stored matrix. `c` points at
// row i0 of C.
void GemmRows(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n, bool ta, bool tb, int64_t i0, int64_t i1) {
  if (i0 >= i1 || n == 0) return;
  int64_t lda = ta ? m : k;
  int64_t ldb = tb ? k : n;
  if (UseTiledPath(m, k, n, ta, tb)) {
    TiledRows(a, b, c, k, n, ta, tb, lda, ldb, i0, i1);
    return;
  }
  if (!ta) {
    GemmDispatch(a, b, c, i1 - i0, k, n, ta, tb);
  } else {
    SSTBAN_CHECK(i0 == 0 && i1 == m);
    GemmDispatch(a, b, c, m, k, n, ta, tb);
  }
}

// Shared driver for Matmul (batch == 1) and Bmm: walks the batch x
// row-block grid in order.
void BatchedGemm(const float* pa, const float* pb, float* pc, int64_t batch,
                 int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                 int64_t a_stride, int64_t b_stride) {
  if (batch == 0 || m == 0 || n == 0) return;
  int64_t row_blocks = RowBlocksFor(m, k, n, ta, tb);
  int64_t o_stride = m * n;
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t blk = 0; blk < row_blocks; ++blk) {
      int64_t i0 = blk * kRowBlock;
      int64_t i1 = row_blocks == 1 ? m : std::min(m, i0 + kRowBlock);
      const float* a_base = pa + bi * a_stride + (ta ? 0 : i0 * k);
      GemmRows(a_base, pb + bi * b_stride, pc + bi * o_stride + i0 * n, m, k,
               n, ta, tb, i0, i1);
    }
  }
}

}  // namespace

void GemmRowRangeAccumulate(const float* a_block, const float* b,
                            float* c_block, int64_t m, int64_t k, int64_t n,
                            bool ta, bool tb, int64_t i0, int64_t i1) {
  SSTBAN_CHECK(!ta || i0 == 0);
  GemmRows(a_block, b, c_block, m, k, n, ta, tb, i0, i1);
}

void GemmBatchedInto(const float* a, const float* b, float* c, int64_t batch,
                     int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                     int64_t a_stride, int64_t b_stride) {
  // Zero-fill first: the kernels accumulate into C, matching the
  // Tensor::Zeros allocations in Matmul/Bmm bit for bit.
  std::fill_n(c, batch * m * n, 0.0f);
  BatchedGemm(a, b, c, batch, m, k, n, ta, tb, a_stride, b_stride);
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
  BatchedGemm(a.data(), b.data(), out.data(), /*batch=*/1, m, k, n,
              /*ta=*/false, /*tb=*/false, 0, 0);
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
  BatchedGemm(a.data(), b.data(), out.data(), batch, m, k, n, transpose_a,
              transpose_b, a.dim(1) * a.dim(2), b.dim(1) * b.dim(2));
  return out;
}

}  // namespace sstban::tensor
