#include "tensor/fused_attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/check.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels.h"

namespace sstban::tensor {

namespace {

// Shapes the tier's attention forms (simd::AttentionItem) take, forward
// and backward. At dk <= kFormMaxHeadDim both GEMMs of the unfused chain run
// the tier's small-shape kernels (matmul.cc UseTiledPath), whose FMA chains
// the forms reproduce; any other shape takes the row-block path.
constexpr int64_t kFormMaxHeadDim = 8;
// Few queries, e.g. R reference points absorbing L elements: absorb.
constexpr int64_t kAbsorbMaxQueries = 8;
// Short key rows, e.g. L elements reading R reference points, or the P-step
// temporal and transform attentions: broadcast.
constexpr int64_t kBroadcastMaxKeys = 16;
// Neither form takes longer key rows.
constexpr int64_t kFormMaxKeys = 512;
// Query rows per block of the row-block path: caps its score scratch at
// kQueryBlock x lk floats. The forward's score and context GEMMs run at the
// full problem shape (GemmRowRangeAccumulate), so its bits do not depend on
// the block height.
constexpr int64_t kQueryBlock = 64;

// An attention form in both directions.
struct Form {
  simd::AttentionFormFn forward = nullptr;
  simd::AttentionBackwardFn backward = nullptr;
};

// Both null when the shape (or the tier) has no form.
Form ChooseForm(const simd::SimdKernels& ks, const AttentionDims& d) {
  if (d.dk > kFormMaxHeadDim || d.lk > kFormMaxKeys) return {};
  if (d.lq <= kAbsorbMaxQueries) {
    return {ks.attention_absorb, ks.attention_absorb_backward};
  }
  if (d.lk <= kBroadcastMaxKeys) {
    return {ks.attention_broadcast, ks.attention_broadcast_backward};
  }
  return {};
}

// The operands of batch item b, `out` left null.
simd::AttentionItem ItemOperands(const float* q, const float* k,
                                 const float* v, const float* key_mask,
                                 const AttentionDims& d, float scale,
                                 int64_t b) {
  const int64_t ld = d.heads * d.dk;
  const int64_t q_stride = d.shared_q ? 0 : d.lq * ld;
  return simd::AttentionItem{
      q + b * q_stride, k + b * d.lk * ld, v + b * d.lk * ld,
      key_mask != nullptr ? key_mask + b * d.lk : nullptr,
      /*out=*/nullptr, d.heads, d.lq, d.lk, d.dk, scale};
}

// `rows` rows of one head (dk floats each, `ld` apart) as a contiguous
// [rows, dk] block: the source itself when it already is one (one head),
// else a copy in `scratch`.
const float* HeadRows(const float* src, int64_t ld, int64_t rows, int64_t dk,
                      float* scratch) {
  if (ld == dk) return src;
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(scratch + r * dk, src + r * ld,
                static_cast<size_t>(dk) * sizeof(float));
  }
  return scratch;
}

void ScatterHeadRows(const float* src, int64_t rows, int64_t dk, float* dst,
                     int64_t ld) {
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(dst + r * ld, src + r * dk,
                static_cast<size_t>(dk) * sizeof(float));
  }
}

// The additive expansion the unfused path writes into its materialized mask:
// keeping a key adds exactly 0.0f, excluding it adds -1e9f. Always perform
// the add (never skip the keep case) so the arithmetic matches the unfused
// Add(scores, additive) element for element.
inline void AddMaskRow(float* srow, const float* mrow, int64_t lk) {
  for (int64_t j = 0; j < lk; ++j) {
    srow[j] = srow[j] + (mrow[j] > 0.5f ? 0.0f : -1e9f);
  }
}

// Probabilities of query rows [i0, i1) of one contiguous head into `p`
// ([i1 - i0, lk]): `qblk` holds those rows ([i1 - i0, dk]), `kb` the head's
// [lk, dk] keys. The unfused chain's probabilities bit for bit: the score
// GEMM goes through GemmRowRangeAccumulate with the full problem shape (Bmm's
// kernel routing), the scale is MulScalar's one multiply per element, and
// the softmax is the tier's softmax_row.
void RowBlockProbs(const float* qblk, const float* kb, const float* mrow,
                   float* p, int64_t lq, int64_t lk, int64_t dk, float scale,
                   int64_t i0, int64_t i1, const simd::SimdKernels& ks) {
  const int64_t rows = i1 - i0;
  std::memset(p, 0, static_cast<size_t>(rows * lk) * sizeof(float));
  GemmRowRangeAccumulate(qblk, kb, p, lq, dk, lk,
                         /*ta=*/false, /*tb=*/true, i0, i1);
  const int64_t n = rows * lk;
  for (int64_t i = 0; i < n; ++i) p[i] *= scale;
  for (int64_t r = 0; r < rows; ++r) {
    float* prow = p + r * lk;
    if (mrow != nullptr) AddMaskRow(prow, mrow, lk);
    ks.softmax_row(prow, prow, lk);
  }
}

// Every shape without a form: one pass per (batch item, head, 64-row
// block), the head's slices gathered into contiguous scratch when there is
// more than one head. The context GEMM, like the score GEMM, runs at the
// full problem shape. The scratch is thread_local, so concurrent callers
// (one per batch item of the serving and training splits) never share it.
void RowBlockAttention(const float* q, const float* k, const float* v,
                       const float* key_mask, float* out,
                       const AttentionDims& d, float scale,
                       const simd::SimdKernels& ks) {
  const int64_t ld = d.heads * d.dk, dk = d.dk, lq = d.lq, lk = d.lk;
  const int64_t q_stride = d.shared_q ? 0 : lq * ld;
  const int64_t block_rows = std::min(lq, kQueryBlock);
  thread_local std::vector<float> scores;
  thread_local std::vector<float> slices;
  scores.resize(static_cast<size_t>(block_rows * lk));
  slices.resize(static_cast<size_t>(2 * (block_rows + lk) * dk));
  float* q_slice = slices.data();
  float* o_slice = q_slice + block_rows * dk;
  float* k_slice = o_slice + block_rows * dk;
  float* v_slice = k_slice + lk * dk;
  for (int64_t b = 0; b < d.batch; ++b) {
    const float* mrow = key_mask != nullptr ? key_mask + b * lk : nullptr;
    for (int64_t j = 0; j < d.heads; ++j) {
      const float* kb = HeadRows(k + b * lk * ld + j * dk, ld, lk, dk, k_slice);
      const float* vb = HeadRows(v + b * lk * ld + j * dk, ld, lk, dk, v_slice);
      for (int64_t i0 = 0; i0 < lq; i0 += kQueryBlock) {
        const int64_t i1 = std::min(lq, i0 + kQueryBlock);
        const int64_t rows = i1 - i0;
        const float* qblk = HeadRows(q + b * q_stride + i0 * ld + j * dk, ld,
                                     rows, dk, q_slice);
        float* odst = out + (b * lq + i0) * ld + j * dk;
        float* oblk = ld == dk ? odst : o_slice;
        RowBlockProbs(qblk, kb, mrow, scores.data(), lq, lk, dk, scale, i0,
                      i1, ks);
        std::memset(oblk, 0, static_cast<size_t>(rows * dk) * sizeof(float));
        GemmRowRangeAccumulate(scores.data(), vb, oblk, lq, lk, dk,
                               /*ta=*/false, /*tb=*/false, i0, i1);
        if (oblk != odst) ScatterHeadRows(oblk, rows, dk, odst, ld);
      }
    }
  }
}

// Row-block backward of one contiguous head, for shapes without a form:
// dq/dk/dv overwritten.
void BackwardHead(const float* qb, const float* kb, const float* vb,
                  const float* mrow, const float* dob, float* dqb, float* dkb,
                  float* dvb, int64_t lq, int64_t lk, int64_t dk, float scale,
                  float* p, float* ds, const simd::SimdKernels& ks) {
  std::memset(dkb, 0, static_cast<size_t>(lk * dk) * sizeof(float));
  std::memset(dvb, 0, static_cast<size_t>(lk * dk) * sizeof(float));
  // When every key is excluded, each masked score rounds to -1e9 and the
  // rows are uniform whatever Q and K are: no gradient reaches them.
  const bool fully_masked =
      mrow != nullptr &&
      std::none_of(mrow, mrow + lk, [](float m) { return m > 0.5f; });
  for (int64_t i0 = 0; i0 < lq; i0 += kQueryBlock) {
    int64_t i1 = std::min(lq, i0 + kQueryBlock);
    int64_t rows = i1 - i0;
    // Recompute P for this block: the forward's probabilities.
    RowBlockProbs(qb + i0 * dk, kb, mrow, p, lq, lk, dk, scale, i0, i1, ks);
    // dV += P^T dOut_block.
    GemmRowRangeAccumulate(p, dob + i0 * dk, dvb, lk, rows, dk,
                           /*ta=*/true, /*tb=*/false, 0, lk);
    // dP = dOut_block V^T.
    std::memset(ds, 0, static_cast<size_t>(rows * lk) * sizeof(float));
    GemmRowRangeAccumulate(dob + i0 * dk, vb, ds, rows, dk, lk,
                           /*ta=*/false, /*tb=*/true, 0, rows);
    // dS = P o (dP - rowsum(dP o P)) * scale, written over dP.
    for (int64_t r = 0; r < rows; ++r) {
      const float* prow = p + r * lk;
      float* dsrow = ds + r * lk;
      if (fully_masked) {
        std::fill(dsrow, dsrow + lk, 0.0f);
        continue;
      }
      double dot = 0.0;
      for (int64_t j = 0; j < lk; ++j) dot += static_cast<double>(dsrow[j]) * prow[j];
      float fdot = static_cast<float>(dot);
      for (int64_t j = 0; j < lk; ++j) {
        dsrow[j] = prow[j] * (dsrow[j] - fdot) * scale;
      }
    }
    // dQ_block = dS K.
    std::memset(dqb + i0 * dk, 0,
                static_cast<size_t>(rows * dk) * sizeof(float));
    GemmRowRangeAccumulate(ds, kb, dqb + i0 * dk, rows, lk, dk,
                           /*ta=*/false, /*tb=*/false, 0, rows);
    // dK += dS^T Q_block.
    GemmRowRangeAccumulate(ds, qb + i0 * dk, dkb, lk, rows, dk,
                           /*ta=*/true, /*tb=*/false, 0, lk);
  }
}

}  // namespace

void FusedAttentionInto(const float* q, const float* k, const float* v,
                        const float* key_mask, float* out,
                        const AttentionDims& dims, float scale) {
  SSTBAN_CHECK_GT(dims.batch, 0);
  SSTBAN_CHECK_GT(dims.heads, 0);
  SSTBAN_CHECK_GT(dims.lq, 0);
  SSTBAN_CHECK_GT(dims.lk, 0);
  SSTBAN_CHECK_GT(dims.dk, 0);
  const simd::SimdKernels& ks = simd::Kernels();
  const simd::AttentionFormFn form = ChooseForm(ks, dims).forward;
  if (form == nullptr) {
    RowBlockAttention(q, k, v, key_mask, out, dims, scale, ks);
    return;
  }
  const int64_t ld = dims.heads * dims.dk;
  for (int64_t b = 0; b < dims.batch; ++b) {
    simd::AttentionItem item =
        ItemOperands(q, k, v, key_mask, dims, scale, b);
    item.out = out + b * dims.lq * ld;
    form(item);
  }
}

AttentionDims FusedAttentionDims(const Tensor& q, const Tensor& k,
                                 const Tensor& v, const Tensor* key_mask,
                                 int64_t heads) {
  SSTBAN_CHECK_EQ(q.rank(), 3);
  SSTBAN_CHECK_EQ(k.rank(), 3);
  SSTBAN_CHECK(v.shape() == k.shape())
      << "V" << v.shape().ToString() << "vs K" << k.shape().ToString();
  SSTBAN_CHECK_GT(heads, 0);
  AttentionDims dims;
  dims.batch = k.dim(0);
  dims.heads = heads;
  dims.lq = q.dim(1);
  dims.lk = k.dim(1);
  SSTBAN_CHECK_EQ(k.dim(2) % heads, 0);
  dims.dk = k.dim(2) / heads;
  SSTBAN_CHECK_EQ(q.dim(2), k.dim(2));
  SSTBAN_CHECK(q.dim(0) == dims.batch || q.dim(0) == 1)
      << "Q batch" << q.dim(0) << "vs K batch" << dims.batch;
  dims.shared_q = q.dim(0) != dims.batch;
  if (key_mask != nullptr) {
    SSTBAN_CHECK_EQ(key_mask->rank(), 2);
    SSTBAN_CHECK_EQ(key_mask->dim(0), dims.batch);
    SSTBAN_CHECK_EQ(key_mask->dim(1), dims.lk);
  }
  return dims;
}

Tensor FusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor* key_mask, int64_t mask_heads, float scale) {
  SSTBAN_CHECK_EQ(q.rank(), 3);
  SSTBAN_CHECK_EQ(k.rank(), 3);
  SSTBAN_CHECK_EQ(q.dim(0), k.dim(0));
  Tensor keep_rows;
  if (key_mask != nullptr && mask_heads != 1) {
    SSTBAN_CHECK_EQ(key_mask->rank(), 2);
    int64_t rows = key_mask->dim(0), lk = key_mask->dim(1);
    SSTBAN_CHECK_EQ(rows * mask_heads, q.dim(0));
    keep_rows = RepeatAxis(key_mask->Reshape(Shape{rows, 1, lk}), 1, mask_heads)
                    .Reshape(Shape{rows * mask_heads, lk});
    key_mask = &keep_rows;
  }
  AttentionDims dims = FusedAttentionDims(q, k, v, key_mask, /*heads=*/1);
  Tensor out = Tensor::Empty(Shape{dims.batch, dims.lq, dims.dk});
  FusedAttentionInto(q.data(), k.data(), v.data(),
                     key_mask != nullptr ? key_mask->data() : nullptr,
                     out.data(), dims, scale);
  return out;
}

Tensor AttentionProbs(const Tensor& q, const Tensor& k, const Tensor* key_mask,
                      int64_t heads, float scale) {
  // No V is read; K stands in for it in the shape check.
  const AttentionDims d = FusedAttentionDims(q, k, k, key_mask, heads);
  const simd::SimdKernels& ks = simd::Kernels();
  const int64_t ld = d.heads * d.dk, dk = d.dk, lq = d.lq, lk = d.lk;
  const int64_t q_stride = d.shared_q ? 0 : lq * ld;
  // Per-head probabilities, then the chain's head average.
  Tensor probs = Tensor::Empty(Shape{d.batch, d.heads, lq, lk});
  thread_local std::vector<float> slices;
  slices.resize(static_cast<size_t>((kQueryBlock + lk) * dk));
  for (int64_t b = 0; b < d.batch; ++b) {
    const float* mrow =
        key_mask != nullptr ? key_mask->data() + b * lk : nullptr;
    for (int64_t j = 0; j < d.heads; ++j) {
      const float* kb = HeadRows(k.data() + b * lk * ld + j * dk, ld, lk, dk,
                                 slices.data() + kQueryBlock * dk);
      for (int64_t i0 = 0; i0 < lq; i0 += kQueryBlock) {
        const int64_t i1 = std::min(lq, i0 + kQueryBlock);
        const float* qblk = HeadRows(q.data() + b * q_stride + i0 * ld + j * dk,
                                     ld, i1 - i0, dk, slices.data());
        RowBlockProbs(qblk, kb, mrow,
                      probs.data() + ((b * d.heads + j) * lq + i0) * lk, lq,
                      lk, dk, scale, i0, i1, ks);
      }
    }
  }
  return Mean(probs, 1);
}

void FusedAttentionBackward(const float* q, const float* k, const float* v,
                            const float* key_mask, const float* dout,
                            float* dq, float* dkk, float* dv,
                            const AttentionDims& dims, float scale) {
  const simd::SimdKernels& ks = simd::Kernels();
  const int64_t ld = dims.heads * dims.dk, dk = dims.dk;
  const simd::AttentionBackwardFn form = ChooseForm(ks, dims).backward;
  if (form != nullptr) {
    for (int64_t b = 0; b < dims.batch; ++b) {
      const int64_t q_off = b * dims.lq * ld, kv_off = b * dims.lk * ld;
      form(simd::AttentionGradItem{
          ItemOperands(q, k, v, key_mask, dims, scale, b), dout + q_off,
          dq + q_off, dkk + kv_off, dv + kv_off});
    }
    return;
  }
  const int64_t lq = dims.lq, lk = dims.lk;
  const int64_t q_stride = dims.shared_q ? 0 : lq * ld;
  const int64_t block_rows = std::min(lq, kQueryBlock);
  const bool gather = ld != dk;
  // One (batch item, head) at a time: each item's dK / dV accumulate across
  // its row blocks in a fixed sequential order.
  thread_local std::vector<float> probs;
  thread_local std::vector<float> dscores;
  thread_local std::vector<float> slices;
  probs.resize(static_cast<size_t>(block_rows * lk));
  dscores.resize(static_cast<size_t>(block_rows * lk));
  if (gather) slices.resize(static_cast<size_t>((3 * lq + 4 * lk) * dk));
  float* q_slice = slices.data();
  float* do_slice = q_slice + lq * dk;
  float* dq_slice = do_slice + lq * dk;
  float* k_slice = dq_slice + lq * dk;
  float* v_slice = k_slice + lk * dk;
  float* dk_slice = v_slice + lk * dk;
  float* dv_slice = dk_slice + lk * dk;
  for (int64_t idx = 0; idx < dims.batch * dims.heads; ++idx) {
    const int64_t b = idx / dims.heads, j = idx % dims.heads;
    const int64_t q_off = (b * lq) * ld + j * dk;
    const int64_t kv_off = (b * lk) * ld + j * dk;
    const float* qb = HeadRows(q + b * q_stride + j * dk, ld, lq, dk, q_slice);
    const float* dob = HeadRows(dout + q_off, ld, lq, dk, do_slice);
    const float* kb = HeadRows(k + kv_off, ld, lk, dk, k_slice);
    const float* vb = HeadRows(v + kv_off, ld, lk, dk, v_slice);
    float* dqb = gather ? dq_slice : dq + q_off;
    float* dkb = gather ? dk_slice : dkk + kv_off;
    float* dvb = gather ? dv_slice : dv + kv_off;
    const float* mrow = key_mask != nullptr ? key_mask + b * lk : nullptr;
    BackwardHead(qb, kb, vb, mrow, dob, dqb, dkb, dvb, lq, lk, dk, scale,
                 probs.data(), dscores.data(), ks);
    if (gather) {
      ScatterHeadRows(dqb, lq, dk, dq + q_off, ld);
      ScatterHeadRows(dkb, lk, dk, dkk + kv_off, ld);
      ScatterHeadRows(dvb, lk, dk, dv + kv_off, ld);
    }
  }
}

}  // namespace sstban::tensor
