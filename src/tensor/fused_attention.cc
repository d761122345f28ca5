#include "tensor/fused_attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/check.h"
#include "tensor/matmul.h"
#include "tensor/parallel.h"
#include "tensor/simd/kernels.h"

namespace sstban::tensor {

namespace {

// The additive expansion the unfused path writes into its materialized mask:
// keeping a key adds exactly 0.0f, excluding it adds -1e9f. Always perform
// the add (never skip the keep case) so the arithmetic matches the unfused
// Add(scores, additive) element for element.
inline void AddMaskRow(float* srow, const float* mrow, int64_t lk) {
  for (int64_t j = 0; j < lk; ++j) {
    srow[j] = srow[j] + (mrow[j] > 0.5f ? 0.0f : -1e9f);
  }
}

// Exact two-pass body for query rows [i0, i1) of batch item bi. Reproduces
// the unfused chain bitwise: the two GEMMs go through GemmRowRangeAccumulate
// with the full problem shape (identical kernel routing and identical 64-row
// partition boundaries as Bmm), and scale/mask/softmax use the same simd
// kernel entry points the tensor ops use.
void ExactBlock(const float* q, const float* k, const float* v,
                const float* mrow, float* out, int64_t lq, int64_t lk,
                int64_t dk, float scale, int64_t bi, int64_t i0, int64_t i1,
                float* scores, const simd::SimdKernels& ks) {
  int64_t rows = i1 - i0;
  const float* qb = q + bi * lq * dk;
  const float* kb = k + bi * lk * dk;
  const float* vb = v + bi * lk * dk;
  float* ob = out + bi * lq * dk + i0 * dk;

  std::memset(scores, 0, static_cast<size_t>(rows * lk) * sizeof(float));
  GemmRowRangeAccumulate(qb + i0 * dk, kb, scores, lq, dk, lk,
                         /*ta=*/false, /*tb=*/true, i0, i1);
  ks.mul_scalar(scores, scale, scores, rows * lk);
  for (int64_t r = 0; r < rows; ++r) {
    float* srow = scores + r * lk;
    if (mrow != nullptr) AddMaskRow(srow, mrow, lk);
    ks.softmax_row(srow, srow, lk);
  }
  std::memset(ob, 0, static_cast<size_t>(rows * dk) * sizeof(float));
  GemmRowRangeAccumulate(scores, vb, ob, lq, lk, dk,
                         /*ta=*/false, /*tb=*/false, i0, i1);
}

// Flash-style online-softmax body: streams key blocks of at most
// kFusedAttentionExactMaxKeys through the same scratch, carrying a running
// (row max, denominator, output accumulator) triple. Sequential over key
// blocks within one (batch, row-block) item, so deterministic; not bitwise
// against the unfused chain (different summation order).
void OnlineBlock(const float* q, const float* k, const float* v,
                 const float* mrow, float* out, int64_t lq, int64_t lk,
                 int64_t dk, float scale, int64_t bi, int64_t i0, int64_t i1,
                 float* scores, float* acc, float* run_max, double* run_sum,
                 const simd::SimdKernels& ks) {
  int64_t rows = i1 - i0;
  const float* qb = q + bi * lq * dk + i0 * dk;
  const float* kb = k + bi * lk * dk;
  const float* vb = v + bi * lk * dk;
  float* ob = out + bi * lq * dk + i0 * dk;

  std::memset(acc, 0, static_cast<size_t>(rows * dk) * sizeof(float));
  for (int64_t r = 0; r < rows; ++r) {
    run_max[r] = -std::numeric_limits<float>::infinity();
    run_sum[r] = 0.0;
  }

  for (int64_t j0 = 0; j0 < lk; j0 += kFusedAttentionExactMaxKeys) {
    int64_t j1 = std::min(lk, j0 + kFusedAttentionExactMaxKeys);
    int64_t jb = j1 - j0;
    GemmBatchedInto(qb, kb + j0 * dk, scores, /*batch=*/1, rows, dk, jb,
                    /*ta=*/false, /*tb=*/true, 0, 0);
    ks.mul_scalar(scores, scale, scores, rows * jb);
    for (int64_t r = 0; r < rows; ++r) {
      float* srow = scores + r * jb;
      if (mrow != nullptr) AddMaskRow(srow, mrow + j0, jb);
      float block_max = ks.reduce_max(srow, jb);
      float new_max = std::max(run_max[r], block_max);
      if (run_sum[r] > 0.0 && new_max != run_max[r]) {
        float corr = std::exp(run_max[r] - new_max);
        run_sum[r] *= corr;
        ks.mul_scalar(acc + r * dk, corr, acc + r * dk, dk);
      }
      run_max[r] = new_max;
      // In-place exponentiation: scores become the unnormalized probs.
      run_sum[r] += ks.exp_sum(srow, new_max, srow, jb);
    }
    GemmRowRangeAccumulate(scores, vb + j0 * dk, acc, rows, jb, dk,
                           /*ta=*/false, /*tb=*/false, 0, rows);
  }
  for (int64_t r = 0; r < rows; ++r) {
    float inv = static_cast<float>(1.0 / run_sum[r]);
    ks.mul_scalar(acc + r * dk, inv, ob + r * dk, dk);
  }
}

}  // namespace

void FusedAttentionInto(const float* q, const float* k, const float* v,
                        const float* key_mask, int64_t mask_heads, float* out,
                        int64_t batch, int64_t lq, int64_t lk, int64_t dk,
                        float scale) {
  SSTBAN_CHECK_GT(batch, 0);
  SSTBAN_CHECK_GT(lq, 0);
  SSTBAN_CHECK_GT(lk, 0);
  SSTBAN_CHECK_GT(dk, 0);
  if (key_mask != nullptr) {
    SSTBAN_CHECK_GT(mask_heads, 0);
    SSTBAN_CHECK_EQ(batch % mask_heads, 0);
  }
  const simd::SimdKernels& ks = simd::Kernels();
  bool exact = lk <= kFusedAttentionExactMaxKeys;
  int64_t row_blocks = (lq + kGemmRowBlock - 1) / kGemmRowBlock;
  int64_t block_rows = std::min(lq, kGemmRowBlock);
  int64_t score_cols = exact ? lk : kFusedAttentionExactMaxKeys;
  // Work per item drives the same inline-vs-pooled decision BatchedGemm
  // makes; the grid itself is independent of thread count.
  int64_t madds = block_rows * dk * lk;
  int64_t min_chunk = std::max<int64_t>(1, (1 << 16) / std::max<int64_t>(madds, 1));
  ParallelFor(0, batch * row_blocks, [&](int64_t lo, int64_t hi) {
    thread_local std::vector<float> scores;
    thread_local std::vector<float> acc;
    thread_local std::vector<float> run_max;
    thread_local std::vector<double> run_sum;
    scores.resize(static_cast<size_t>(block_rows * score_cols));
    if (!exact) {
      acc.resize(static_cast<size_t>(block_rows * dk));
      run_max.resize(static_cast<size_t>(block_rows));
      run_sum.resize(static_cast<size_t>(block_rows));
    }
    for (int64_t idx = lo; idx < hi; ++idx) {
      int64_t bi = idx / row_blocks;
      int64_t i0 = (idx % row_blocks) * kGemmRowBlock;
      int64_t i1 = std::min(lq, i0 + kGemmRowBlock);
      const float* mrow =
          key_mask != nullptr ? key_mask + (bi / mask_heads) * lk : nullptr;
      if (exact) {
        ExactBlock(q, k, v, mrow, out, lq, lk, dk, scale, bi, i0, i1,
                   scores.data(), ks);
      } else {
        OnlineBlock(q, k, v, mrow, out, lq, lk, dk, scale, bi, i0, i1,
                    scores.data(), acc.data(), run_max.data(), run_sum.data(),
                    ks);
      }
    }
  }, min_chunk);
}

Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor* key_mask, int64_t mask_heads, float scale) {
  SSTBAN_CHECK_EQ(q.rank(), 3);
  SSTBAN_CHECK_EQ(k.rank(), 3);
  SSTBAN_CHECK_EQ(v.rank(), 3);
  int64_t batch = q.dim(0), lq = q.dim(1), dk = q.dim(2), lk = k.dim(1);
  SSTBAN_CHECK_EQ(k.dim(0), batch);
  SSTBAN_CHECK_EQ(k.dim(2), dk);
  SSTBAN_CHECK_EQ(v.dim(0), batch);
  SSTBAN_CHECK_EQ(v.dim(1), lk);
  SSTBAN_CHECK_EQ(v.dim(2), dk);
  if (key_mask != nullptr) {
    SSTBAN_CHECK_EQ(key_mask->rank(), 2);
    SSTBAN_CHECK_EQ(key_mask->dim(0) * mask_heads, batch);
    SSTBAN_CHECK_EQ(key_mask->dim(1), lk);
  }
  Tensor out = Tensor::Empty(Shape{batch, lq, dk});
  FusedAttentionInto(q.data(), k.data(), v.data(),
                     key_mask != nullptr ? key_mask->data() : nullptr,
                     mask_heads, out.data(), batch, lq, lk, dk, scale);
  return out;
}

void FusedAttentionBackward(const float* q, const float* k, const float* v,
                            const float* key_mask, int64_t mask_heads,
                            const float* dout, float* dq, float* dkk,
                            float* dv, int64_t batch, int64_t lq, int64_t lk,
                            int64_t dk, float scale) {
  const simd::SimdKernels& ks = simd::Kernels();
  int64_t row_blocks = (lq + kGemmRowBlock - 1) / kGemmRowBlock;
  int64_t block_rows = std::min(lq, kGemmRowBlock);
  // Parallel over batch only: dK / dV accumulate across row blocks, and a
  // fixed sequential block order keeps the gradients bitwise deterministic.
  ParallelFor(0, batch, [&](int64_t lo, int64_t hi) {
    thread_local std::vector<float> probs;
    thread_local std::vector<float> dscores;
    probs.resize(static_cast<size_t>(block_rows * lk));
    dscores.resize(static_cast<size_t>(block_rows * lk));
    for (int64_t bi = lo; bi < hi; ++bi) {
      const float* qb = q + bi * lq * dk;
      const float* kb = k + bi * lk * dk;
      const float* vb = v + bi * lk * dk;
      const float* dob = dout + bi * lq * dk;
      float* dqb = dq + bi * lq * dk;
      float* dkb = dkk + bi * lk * dk;
      float* dvb = dv + bi * lk * dk;
      const float* mrow =
          key_mask != nullptr ? key_mask + (bi / mask_heads) * lk : nullptr;
      std::memset(dkb, 0, static_cast<size_t>(lk * dk) * sizeof(float));
      std::memset(dvb, 0, static_cast<size_t>(lk * dk) * sizeof(float));
      for (int64_t blk = 0; blk < row_blocks; ++blk) {
        int64_t i0 = blk * kGemmRowBlock;
        int64_t i1 = std::min(lq, i0 + kGemmRowBlock);
        int64_t rows = i1 - i0;
        float* p = probs.data();
        float* ds = dscores.data();
        // Recompute P for this block (exact softmax regardless of lk).
        std::memset(p, 0, static_cast<size_t>(rows * lk) * sizeof(float));
        GemmRowRangeAccumulate(qb + i0 * dk, kb, p, lq, dk, lk,
                               /*ta=*/false, /*tb=*/true, i0, i1);
        ks.mul_scalar(p, scale, p, rows * lk);
        for (int64_t r = 0; r < rows; ++r) {
          float* prow = p + r * lk;
          if (mrow != nullptr) AddMaskRow(prow, mrow, lk);
          ks.softmax_row(prow, prow, lk);
        }
        // dV += P^T dOut_block.
        GemmRowRangeAccumulate(p, dob + i0 * dk, dvb, lk, rows, dk,
                               /*ta=*/true, /*tb=*/false, 0, lk);
        // dP = dOut_block V^T.
        GemmBatchedInto(dob + i0 * dk, vb, ds, /*batch=*/1, rows, dk, lk,
                        /*ta=*/false, /*tb=*/true, 0, 0);
        // dS = P o (dP - rowsum(dP o P)) * scale, written over dP.
        for (int64_t r = 0; r < rows; ++r) {
          const float* prow = p + r * lk;
          float* dsrow = ds + r * lk;
          double dot = 0.0;
          for (int64_t j = 0; j < lk; ++j) dot += static_cast<double>(dsrow[j]) * prow[j];
          float fdot = static_cast<float>(dot);
          for (int64_t j = 0; j < lk; ++j) {
            dsrow[j] = prow[j] * (dsrow[j] - fdot) * scale;
          }
        }
        // dQ_block = dS K.
        GemmBatchedInto(ds, kb, dqb + i0 * dk, /*batch=*/1, rows, lk, dk,
                        /*ta=*/false, /*tb=*/false, 0, 0);
        // dK += dS^T Q_block.
        GemmRowRangeAccumulate(ds, qb + i0 * dk, dkb, lk, rows, dk,
                               /*ta=*/true, /*tb=*/false, 0, lk);
      }
    }
  }, /*min_chunk=*/1);
}

}  // namespace sstban::tensor
