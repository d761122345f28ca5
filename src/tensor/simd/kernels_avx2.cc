// AVX2 + FMA kernel tier. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off regardless of the global flags (see
// tensor/CMakeLists.txt), so the only fused multiply-adds are explicit ones;
// nothing here executes unless the runtime dispatcher (core/cpu_features.h)
// confirmed hardware support, so the binary stays safe on plain-SSE x86.
//
// Numerics: FMA keeps qk-products unrounded inside the micro-kernel and the
// vectorized exp is a Cephes-style polynomial (~2 ulp), so this tier's
// results differ from the scalar tier's at the rounding level. Within the
// tier everything is deterministic: lane order, tail handling, and tile
// geometry are pure functions of the problem shape.

#include "tensor/simd/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.h"

namespace sstban::tensor::simd {

namespace {

constexpr int64_t kAvx2MR = 6;  // 6x16 register block: 12 accumulator ymms

// ---------------------------------------------------------------------------
// Tiled-GEMM micro-kernel: 6 rows x 16 columns of C held in registers for
// the whole kc loop (the scalar tier re-loads/stores C every p step, which
// caps it at store throughput; keeping C resident is where the speedup
// comes from). A is read in place through one pointer per row, element p
// at csa steps from it; B's row p is at b + p*ldb. Column tails fall to
// 8-wide then scalar loops; each C element still accumulates its k
// contributions in ascending order.
// ---------------------------------------------------------------------------

template <int MR>
void MicroKernelAvx2(const float* a, int64_t rsa, int64_t csa, const float* b,
                     int64_t ldb, float* c, int64_t ldc, int64_t kc,
                     int64_t nc) {
  const float* arow[MR];
  for (int r = 0; r < MR; ++r) arow[r] = a + r * rsa;
  int64_t j = 0;
  for (; j + 16 <= nc; j += 16) {
    __m256 acc0[MR], acc1[MR];
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm256_loadu_ps(c + r * ldc + j);
      acc1[r] = _mm256_loadu_ps(c + r * ldc + j + 8);
    }
    const float* brow = b + j;
    int64_t pa = 0;
    for (int64_t p = 0; p < kc; ++p, brow += ldb, pa += csa) {
      __m256 b0 = _mm256_loadu_ps(brow);
      __m256 b1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < MR; ++r) {
        __m256 av = _mm256_broadcast_ss(arow[r] + pa);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < MR; ++r) {
      _mm256_storeu_ps(c + r * ldc + j, acc0[r]);
      _mm256_storeu_ps(c + r * ldc + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= nc; j += 8) {
    __m256 acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc + j);
    const float* brow = b + j;
    int64_t pa = 0;
    for (int64_t p = 0; p < kc; ++p, brow += ldb, pa += csa) {
      __m256 b0 = _mm256_loadu_ps(brow);
      for (int r = 0; r < MR; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(arow[r] + pa), b0, acc[r]);
      }
    }
    for (int r = 0; r < MR; ++r) _mm256_storeu_ps(c + r * ldc + j, acc[r]);
  }
  // Scalar column tail; std::fmaf keeps the contraction behavior of the
  // vector lanes so a column's numerics depend only on its own index.
  for (; j < nc; ++j) {
    for (int r = 0; r < MR; ++r) {
      float acc = c[r * ldc + j];
      for (int64_t p = 0; p < kc; ++p) {
        acc = std::fmaf(arow[r][p * csa], b[p * ldb + j], acc);
      }
      c[r * ldc + j] = acc;
    }
  }
}

void GemmTileAvx2(const float* a, int64_t rsa, int64_t csa, const float* b,
                  int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t nc) {
  MicroKernelAvx2<kAvx2MR>(a, rsa, csa, b, ldb, c, ldc, kc, nc);
}

void GemmTailAvx2(const float* a, int64_t rsa, int64_t csa, const float* b,
                  int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t nc,
                  int64_t mr) {
  switch (mr) {
    case 5: MicroKernelAvx2<5>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
    case 4: MicroKernelAvx2<4>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
    case 3: MicroKernelAvx2<3>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
    case 2: MicroKernelAvx2<2>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
    default: MicroKernelAvx2<1>(a, rsa, csa, b, ldb, c, ldc, kc, nc); break;
  }
}

// ---------------------------------------------------------------------------
// Attention-shape GEMMs. The tiled path never sees these problems
// (head_dim-sized inner dimensions, see UseTiledPath in matmul.cc), and the
// scalar QK^T loop is a length-K dot product with a horizontal reduction per
// score — the slowest shape in the attention forward. Both kernels instead
// stream register-resident strips of a C row with broadcast-FMA over k in
// ascending order, so an element's value depends only on the problem shape.
// ---------------------------------------------------------------------------

// Shared inner routine: C[M,N] += A[M,K] * B'[K,N] with B' row-major. Strip
// widths 8 -> 4 -> scalar fmaf are a pure function of (j, n).
void BroadcastFmaRows(const float* a, const float* bp, float* c, int64_t m,
                      int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (int64_t p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + p),
                              _mm256_loadu_ps(bp + p * n + j), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j + 4 <= n; j += 4) {
      __m128 acc = _mm_loadu_ps(crow + j);
      for (int64_t p = 0; p < k; ++p) {
        acc = _mm_fmadd_ps(_mm_broadcast_ss(arow + p),
                           _mm_loadu_ps(bp + p * n + j), acc);
      }
      _mm_storeu_ps(crow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fmaf(arow[p], bp[p * n + j], acc);
      }
      crow[j] = acc;
    }
  }
}

void GemmNNSmallAvx2(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n) {
  BroadcastFmaRows(a, b, c, m, k, n);
}

void GemmNTSmallAvx2(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n) {
  // Transpose B ([N,K] row-major) into a [K,N] panel once per call; the
  // QK^T scores then take the same streaming broadcast-FMA form as the NN
  // case instead of one horizontal reduction per element. The panel is tiny
  // (K is a head_dim) and amortizes over every row of the block.
  thread_local std::vector<float> bt;
  if (bt.size() < static_cast<size_t>(k * n)) {
    bt.resize(static_cast<size_t>(k * n));
  }
  float* panel = bt.data();
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) panel[p * n + j] = b[j * k + p];
  }
  BroadcastFmaRows(a, panel, c, m, k, n);
}

// ---------------------------------------------------------------------------
// Softmax row primitives.
// ---------------------------------------------------------------------------

// Lanes [0, n) set, n in [0, 8].
inline __m256i LaneMask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

float ReduceMaxAvx2(const float* a, int64_t n) {
  if (n < 8) {
    float m = a[0];
    for (int64_t i = 1; i < n; ++i) m = std::max(m, a[i]);
    return m;
  }
  __m256 vm = _mm256_loadu_ps(a);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) vm = _mm256_max_ps(vm, _mm256_loadu_ps(a + i));
  // Horizontal max (max is associative/commutative, order is irrelevant).
  __m128 lo = _mm256_castps256_ps128(vm);
  __m128 hi = _mm256_extractf128_ps(vm, 1);
  __m128 m4 = _mm_max_ps(lo, hi);
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, 0x55));
  float m = _mm_cvtss_f32(m4);
  for (; i < n; ++i) m = std::max(m, a[i]);
  return m;
}

// Cephes-style vector expf: exp(x) = 2^k * exp(r) with r in [-ln2/2, ln2/2]
// and a degree-5 polynomial for exp(r). Max error ~2 ulp over the clamped
// domain [-87.34, 88.38]. Below it the result is exactly +0: the 2^k factor
// is zeroed before the last multiply, so no lane there forms a subnormal
// product. Softmax feeds x - max <= 0, and a hard-masked key (score -1e9)
// lands below the clamp, so an excluded key weighs exactly 0, as std::exp
// gives it. NaN in gives NaN out: max and min return their second operand
// when either is NaN, so the clamp passes it through.
inline __m256 Exp256(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647950f);
  const __m256 kLo = _mm256_set1_ps(-87.3365478515625f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kHalf = _mm256_set1_ps(0.5f);
  const __m256 kLn2Hi = _mm256_set1_ps(0.693359375f);
  const __m256 kLn2Lo = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kOne = _mm256_set1_ps(1.0f);

  // All ones where x >= kLo; false for NaN, whose y stays NaN below.
  const __m256 in_range = _mm256_cmp_ps(x, kLo, _CMP_GE_OQ);
  x = _mm256_min_ps(kHi, _mm256_max_ps(kLo, x));

  // k = floor(x * log2(e) + 0.5)
  __m256 fx = _mm256_fmadd_ps(x, kLog2e, kHalf);
  fx = _mm256_floor_ps(fx);
  // r = x - k * ln2, in two pieces for accuracy.
  __m256 r = _mm256_fnmadd_ps(fx, kLn2Hi, x);
  r = _mm256_fnmadd_ps(fx, kLn2Lo, r);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
  __m256 r2 = _mm256_mul_ps(r, r);
  y = _mm256_fmadd_ps(y, r2, _mm256_add_ps(r, kOne));

  // 2^k via exponent-field construction.
  __m256i k = _mm256_cvttps_epi32(fx);
  k = _mm256_add_epi32(k, _mm256_set1_epi32(127));
  __m256 pow2k = _mm256_castsi256_ps(_mm256_slli_epi32(k, 23));
  return _mm256_mul_ps(y, _mm256_and_ps(pow2k, in_range));
}

double ExpSumAvx2(const float* a, float m, float* o, int64_t n) {
  __m256 vm = _mm256_set1_ps(m);
  // Four double accumulators (two per 8-lane block), combined in a fixed
  // order at the end — deterministic regardless of n's alignment.
  __m256d sum_lo = _mm256_setzero_pd();
  __m256d sum_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(a + i), vm));
    _mm256_storeu_ps(o + i, e);
    sum_lo = _mm256_add_pd(sum_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    sum_hi = _mm256_add_pd(sum_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  __m256d vsum = _mm256_add_pd(sum_lo, sum_hi);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vsum);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  if (i < n) {
    // The tail's exps come from one masked vector (Exp256 is lane-wise, so
    // an element's value does not depend on the row length's alignment) and
    // are summed one by one.
    alignas(32) float tail[8];
    _mm256_store_ps(tail, Exp256(_mm256_sub_ps(
                              _mm256_maskload_ps(a + i, LaneMask(n - i)), vm)));
    for (int64_t t = 0; i < n; ++i, ++t) {
      o[i] = tail[t];
      sum += tail[t];
    }
  }
  return sum;
}

void SoftmaxRowAvx2(const float* in, float* out, int64_t n) {
  float m = ReduceMaxAvx2(in, n);
  double denom = ExpSumAvx2(in, m, out, n);
  float inv = static_cast<float>(1.0 / denom);
  for (int64_t i = 0; i < n; ++i) out[i] *= inv;
}

// ---------------------------------------------------------------------------
// Attention forms (AttentionItem in kernels.h; tensor/fused_attention.cc
// picks one by shape). At head_dim <= 8 both GEMMs of the unfused chain run
// BroadcastFmaRows, so each form computes, element for element:
//   score  = FMA chain over c = 0..dk-1 from +0 of q[c] * k[c],
//            then * scale, then + (keep ? 0 : -1e9) when masked (separate
//            roundings: this file is built with -ffp-contract=off);
//   e      = Exp256(score - row max);
//   denom  = the row's exps summed in double in ExpSumAvx2's order;
//   p      = e * float(1 / denom);
//   out[c] = FMA chain over keys x = 0..lk-1 from +0 of p[x] * v[x][c].
// Only which lane holds which element changes, and every step is lane-wise.
// ---------------------------------------------------------------------------

// In-register transpose of an 8x8 block held as eight row vectors.
inline void Transpose8x8(__m256 r[8]) {
  __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// dst[c * ldd + x] = src[x * ld + c] for x < rows, c < cols.
void Transpose(const float* src, int64_t ld, int64_t rows, int64_t cols,
               float* dst, int64_t ldd) {
  const __m256i row_offsets = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(ld)));
  int64_t x = 0;
  for (; x + 8 <= rows; x += 8) {
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      __m256 r[8];
      for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + (x + i) * ld + c);
      Transpose8x8(r);
      for (int i = 0; i < 8; ++i) _mm256_storeu_ps(dst + (c + i) * ldd + x, r[i]);
    }
    if (c + 4 <= cols) {
      // 8x4: rows i and i + 4 share a register, then a 4x4 transpose per
      // 128-bit lane leaves column c + k of all eight rows in register k.
      __m256 r[4];
      for (int i = 0; i < 4; ++i) {
        r[i] = _mm256_insertf128_ps(
            _mm256_castps128_ps256(_mm_loadu_ps(src + (x + i) * ld + c)),
            _mm_loadu_ps(src + (x + i + 4) * ld + c), 1);
      }
      __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
      __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
      __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
      __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
      _mm256_storeu_ps(dst + c * ldd + x,
                       _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)));
      _mm256_storeu_ps(dst + (c + 1) * ldd + x,
                       _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)));
      _mm256_storeu_ps(dst + (c + 2) * ldd + x,
                       _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)));
      _mm256_storeu_ps(dst + (c + 3) * ldd + x,
                       _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2)));
      c += 4;
    }
    // One vector store per column, so a vector load of it can forward.
    for (; c < cols; ++c) {
      _mm256_storeu_ps(dst + c * ldd + x,
                       _mm256_i32gather_ps(src + x * ld + c, row_offsets, 4));
    }
  }
  for (; x < rows; ++x) {
    for (int64_t c = 0; c < cols; ++c) dst[c * ldd + x] = src[x * ld + c];
  }
}

inline __m256d LowLanes(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
inline __m256d HighLanes(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

// float(1 / denom) per lane, where lane l's row has its key x in lane l of
// e[x], summed in double exactly as ExpSumAvx2 sums one row of n keys: keys
// 8b + i (i < 4) into lo[i] and 8b + 4 + i into hi[i] over ascending b, then
// ((lo+hi)[0] + (lo+hi)[1]) + ((lo+hi)[2] + (lo+hi)[3]), then the tail keys
// one by one.
__m256 InvDenomLanes(const __m256* e, int64_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d sum_a = zero, sum_b = zero;  // lanes 0-3 and 4-7
  const int64_t blocks = n / 8;
  if (blocks > 0) {
    __m256d va[4], vb[4];
    for (int i = 0; i < 4; ++i) {
      __m256d lo_a = zero, lo_b = zero, hi_a = zero, hi_b = zero;
      for (int64_t b = 0; b < blocks; ++b) {
        lo_a = _mm256_add_pd(lo_a, LowLanes(e[8 * b + i]));
        lo_b = _mm256_add_pd(lo_b, HighLanes(e[8 * b + i]));
        hi_a = _mm256_add_pd(hi_a, LowLanes(e[8 * b + 4 + i]));
        hi_b = _mm256_add_pd(hi_b, HighLanes(e[8 * b + 4 + i]));
      }
      va[i] = _mm256_add_pd(lo_a, hi_a);
      vb[i] = _mm256_add_pd(lo_b, hi_b);
    }
    sum_a = _mm256_add_pd(_mm256_add_pd(va[0], va[1]),
                          _mm256_add_pd(va[2], va[3]));
    sum_b = _mm256_add_pd(_mm256_add_pd(vb[0], vb[1]),
                          _mm256_add_pd(vb[2], vb[3]));
  }
  for (int64_t x = blocks * 8; x < n; ++x) {
    sum_a = _mm256_add_pd(sum_a, LowLanes(e[x]));
    sum_b = _mm256_add_pd(sum_b, HighLanes(e[x]));
  }
  const __m256d one = _mm256_set1_pd(1.0);
  return _mm256_set_m128(_mm256_cvtpd_ps(_mm256_div_pd(one, sum_b)),
                         _mm256_cvtpd_ps(_mm256_div_pd(one, sum_a)));
}

constexpr int64_t kBroadcastFormMaxKeys = 16;

// The eight lanes summed in a fixed order.
inline float HorizontalSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// True when a mask is given and it excludes every one of the lk keys.
bool AllKeysExcluded(const float* keep, int64_t lk) {
  return keep != nullptr &&
         std::none_of(keep, keep + lk, [](float m) { return m > 0.5f; });
}

// The first `rows` (<= 8) rows of q (`ld` apart) as lanes: qt[c * 8 + l]
// holds row l's column c, for c < hd. A short group repeats its last row
// in the spare lanes.
void QueryLanes(const float* q, int64_t ld, int64_t rows, int64_t hd,
                float* qt) {
  if (rows == 8) {
    Transpose(q, ld, rows, hd, qt, 8);
    return;
  }
  const __m256i row_offsets = _mm256_mullo_epi32(
      _mm256_min_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                       _mm256_set1_epi32(static_cast<int>(rows - 1))),
      _mm256_set1_epi32(static_cast<int>(ld)));
  for (int64_t c = 0; c < hd; ++c) {
    _mm256_storeu_ps(qt + c * 8, _mm256_i32gather_ps(q + c, row_offsets, 4));
  }
}

// Probabilities of one head for eight query rows (lanes): e[x] holds key
// x's. qj is the head's [dk][8] query lanes, kj its first column of K;
// mask_add is null when no mask is given.
inline void BroadcastProbs(const float* qj, const float* kj, int64_t ld,
                           int64_t lk, int64_t dk, __m256 vscale,
                           const __m256* mask_add, __m256* e) {
  for (int64_t x = 0; x < lk; ++x) {
    __m256 s = _mm256_setzero_ps();
    for (int64_t c = 0; c < dk; ++c) {
      s = _mm256_fmadd_ps(_mm256_loadu_ps(qj + c * 8),
                          _mm256_broadcast_ss(kj + x * ld + c), s);
    }
    s = _mm256_mul_ps(s, vscale);
    if (mask_add != nullptr) s = _mm256_add_ps(s, mask_add[x]);
    e[x] = s;
  }
  __m256 m = e[0];
  for (int64_t x = 1; x < lk; ++x) m = _mm256_max_ps(m, e[x]);
  for (int64_t x = 0; x < lk; ++x) e[x] = Exp256(_mm256_sub_ps(e[x], m));
  const __m256 inv = InvDenomLanes(e, lk);
  for (int64_t x = 0; x < lk; ++x) e[x] = _mm256_mul_ps(e[x], inv);
}

// The broadcast forms' additive mask per key, broadcast to every lane; null
// when the item has no mask.
const __m256* BroadcastMask(const float* keep, int64_t lk, __m256* mask_add) {
  if (keep == nullptr) return nullptr;
  for (int64_t x = 0; x < lk; ++x) {
    mask_add[x] = _mm256_set1_ps(keep[x] > 0.5f ? 0.0f : -1e9f);
  }
  return mask_add;
}

// Broadcast form: lanes are eight query rows of one head, so a whole row's
// scores, softmax and context stay in registers and no score row is stored.
void AttentionBroadcastAvx2(const AttentionItem& it) {
  const int64_t dk = it.dk, lk = it.lk, hd = it.heads * it.dk, ld = hd;
  SSTBAN_CHECK_LE(lk, kBroadcastFormMaxKeys);
  thread_local std::vector<float> buf;
  if (buf.size() < static_cast<size_t>(16 * hd)) {
    buf.resize(static_cast<size_t>(16 * hd));
  }
  float* qt = buf.data();    // [hd][8]: the group's query rows as lanes
  float* ot = qt + 8 * hd;   // [hd][8]: its output rows as lanes
  __m256 mask_storage[kBroadcastFormMaxKeys];
  const __m256* mask_add = BroadcastMask(it.keep, lk, mask_storage);
  const __m256 vscale = _mm256_set1_ps(it.scale);
  __m256 e[kBroadcastFormMaxKeys];
  for (int64_t i0 = 0; i0 < it.lq; i0 += 8) {
    const int64_t rows = std::min<int64_t>(8, it.lq - i0);
    QueryLanes(it.q + i0 * ld, ld, rows, hd, qt);
    for (int64_t j = 0; j < it.heads; ++j) {
      const float* vj = it.v + j * dk;
      BroadcastProbs(qt + j * dk * 8, it.k + j * dk, ld, lk, dk, vscale,
                     mask_add, e);
      for (int64_t c = 0; c < dk; ++c) {
        __m256 acc = _mm256_setzero_ps();
        for (int64_t x = 0; x < lk; ++x) {
          acc = _mm256_fmadd_ps(e[x], _mm256_broadcast_ss(vj + x * ld + c), acc);
        }
        _mm256_storeu_ps(ot + (j * dk + c) * 8, acc);
      }
    }
    Transpose(ot, 8, hd, rows, it.out + i0 * ld, ld);
  }
}

// Backward of the broadcast form, lanes again eight query rows. dQ leaves
// per group; dK and dV gather per-lane partial sums over all groups and
// fold their lanes once at the end. A short group's spare lanes carry a
// zero dOut, so they add nothing to dK or dV.
void AttentionBroadcastBackwardAvx2(const AttentionGradItem& g) {
  const AttentionItem& it = g.item;
  const int64_t dk = it.dk, lk = it.lk, hd = it.heads * it.dk, ld = hd;
  SSTBAN_CHECK_LE(lk, kBroadcastFormMaxKeys);
  const int64_t acc_size = lk * hd * 8;
  thread_local std::vector<float> buf;
  const size_t need = static_cast<size_t>(24 * hd + 2 * acc_size);
  if (buf.size() < need) buf.resize(need);
  float* qt = buf.data();        // [hd][8]: the group's query rows as lanes
  float* dout_t = qt + 8 * hd;   // [hd][8]: its dOut rows as lanes
  float* dqt = dout_t + 8 * hd;  // [hd][8]: its dQ rows
  float* dv_acc = dqt + 8 * hd;  // [lk][hd][8]: dV's per-lane partial sums
  float* dk_acc = dv_acc + acc_size;  // [lk][hd][8]: dK's
  std::fill(dv_acc, dv_acc + 2 * acc_size, 0.0f);
  __m256 mask_storage[kBroadcastFormMaxKeys];
  const __m256* mask_add = BroadcastMask(it.keep, lk, mask_storage);
  const bool no_qk_grad = AllKeysExcluded(it.keep, lk);
  const __m256 vscale = _mm256_set1_ps(it.scale);
  __m256 e[kBroadcastFormMaxKeys], ds[kBroadcastFormMaxKeys];
  for (int64_t i0 = 0; i0 < it.lq; i0 += 8) {
    const int64_t rows = std::min<int64_t>(8, it.lq - i0);
    QueryLanes(it.q + i0 * ld, ld, rows, hd, qt);
    if (rows < 8) std::fill(dout_t, dout_t + 8 * hd, 0.0f);
    Transpose(g.dout + i0 * ld, ld, rows, hd, dout_t, 8);
    for (int64_t j = 0; j < it.heads; ++j) {
      const float* kj = it.k + j * dk;
      const float* vj = it.v + j * dk;
      const float* qj = qt + j * dk * 8;
      const float* doj = dout_t + j * dk * 8;
      BroadcastProbs(qj, kj, ld, lk, dk, vscale, mask_add, e);
      // dV += P^T dOut.
      for (int64_t x = 0; x < lk; ++x) {
        float* dvx = dv_acc + (x * hd + j * dk) * 8;
        for (int64_t c = 0; c < dk; ++c) {
          _mm256_storeu_ps(dvx + c * 8,
                           _mm256_fmadd_ps(e[x], _mm256_loadu_ps(doj + c * 8),
                                           _mm256_loadu_ps(dvx + c * 8)));
        }
      }
      if (no_qk_grad) continue;
      // dP = dOut V^T and the row sums of dP o P, then dS over dP.
      __m256 dot_p = _mm256_setzero_ps();
      for (int64_t x = 0; x < lk; ++x) {
        __m256 dp = _mm256_setzero_ps();
        for (int64_t c = 0; c < dk; ++c) {
          dp = _mm256_fmadd_ps(_mm256_loadu_ps(doj + c * 8),
                               _mm256_broadcast_ss(vj + x * ld + c), dp);
        }
        ds[x] = dp;
        dot_p = _mm256_fmadd_ps(dp, e[x], dot_p);
      }
      for (int64_t x = 0; x < lk; ++x) {
        ds[x] = _mm256_mul_ps(_mm256_mul_ps(e[x], _mm256_sub_ps(ds[x], dot_p)),
                              vscale);
      }
      // dQ = dS K.
      for (int64_t c = 0; c < dk; ++c) {
        __m256 acc = _mm256_setzero_ps();
        for (int64_t x = 0; x < lk; ++x) {
          acc = _mm256_fmadd_ps(ds[x], _mm256_broadcast_ss(kj + x * ld + c),
                                acc);
        }
        _mm256_storeu_ps(dqt + (j * dk + c) * 8, acc);
      }
      // dK += dS^T Q.
      for (int64_t x = 0; x < lk; ++x) {
        float* dkx = dk_acc + (x * hd + j * dk) * 8;
        for (int64_t c = 0; c < dk; ++c) {
          _mm256_storeu_ps(dkx + c * 8,
                           _mm256_fmadd_ps(ds[x], _mm256_loadu_ps(qj + c * 8),
                                           _mm256_loadu_ps(dkx + c * 8)));
        }
      }
    }
    if (!no_qk_grad) Transpose(dqt, 8, hd, rows, g.dq + i0 * ld, ld);
  }
  if (no_qk_grad) std::fill(g.dq, g.dq + it.lq * ld, 0.0f);
  for (int64_t i = 0; i < lk * hd; ++i) {
    g.dv[i] = HorizontalSum(_mm256_loadu_ps(dv_acc + i * 8));
    g.dkk[i] = HorizontalSum(_mm256_loadu_ps(dk_acc + i * 8));
  }
}

// Context chains of the absorb form: chain t is one (head, query row) pair,
// out[c] = sum over x of p[x] * v[x][c] with lanes c < dk. Holding N chains
// in registers interleaves their FMAs instead of running one latency-bound
// chain at a time.
template <int N>
void AbsorbContext(const float* probs, int64_t lkp, const float* v,
                   float* out, int64_t ld, int64_t lq, int64_t lk, int64_t dk,
                   int64_t chain0, __m256i cmask) {
  int64_t v_off[N], o_off[N];
  __m256 acc[N];
#pragma GCC unroll 8
  for (int t = 0; t < N; ++t) {
    const int64_t j = (chain0 + t) / lq, r = (chain0 + t) % lq;
    v_off[t] = j * dk;
    o_off[t] = r * ld + j * dk;
    acc[t] = _mm256_setzero_ps();
  }
  const float* p = probs + chain0 * lkp;
  for (int64_t x = 0; x < lk; ++x, v += ld) {
#pragma GCC unroll 8
    for (int t = 0; t < N; ++t) {
      acc[t] = _mm256_fmadd_ps(_mm256_broadcast_ss(p + t * lkp + x),
                               _mm256_maskload_ps(v + v_off[t], cmask), acc[t]);
    }
  }
#pragma GCC unroll 8
  for (int t = 0; t < N; ++t) _mm256_maskstore_ps(out + o_off[t], cmask, acc[t]);
}

// Every chain of an item: out [lq, hd] = the rows of `probs` ([heads * lq]
// [lkp], row j * lq + r) times v [lk, hd], head by head.
void AbsorbContexts(const float* probs, int64_t lkp, const float* v,
                    float* out, int64_t ld, int64_t heads, int64_t lq,
                    int64_t lk, int64_t dk) {
  const int64_t rows = heads * lq;
  const __m256i cmask = LaneMask(dk);
  for (int64_t c0 = 0; c0 < rows; c0 += 8) {
    switch (std::min<int64_t>(8, rows - c0)) {
#define SSTBAN_ABSORB_CONTEXT(n)                                     \
  AbsorbContext<n>(probs, lkp, v, out, ld, lq, lk, dk, c0, cmask); \
  break
      case 8: SSTBAN_ABSORB_CONTEXT(8);
      case 7: SSTBAN_ABSORB_CONTEXT(7);
      case 6: SSTBAN_ABSORB_CONTEXT(6);
      case 5: SSTBAN_ABSORB_CONTEXT(5);
      case 4: SSTBAN_ABSORB_CONTEXT(4);
      case 3: SSTBAN_ABSORB_CONTEXT(3);
      case 2: SSTBAN_ABSORB_CONTEXT(2);
      default: SSTBAN_ABSORB_CONTEXT(1);
#undef SSTBAN_ABSORB_CONTEXT
    }
  }
}

// Lanes [keys, 8) of a [cols][8] lane block set to zero.
void ZeroSpareLanes(float* t, int64_t cols, int64_t keys) {
  if (keys == 8) return;
  for (int64_t c = 0; c < cols; ++c) {
    std::fill(t + c * 8 + keys, t + c * 8 + 8, 0.0f);
  }
}

// Scores and probabilities of the absorb form, lanes keys: all heads * lq
// rows of the item into probs ([heads * lq][lkp], row j * lq + r), scored
// eight keys at a time against an L1-resident transposed K block (`kt`,
// [hd][8]) and run through the tier's softmax row. Columns [lk, lkp) keep
// their scores.
void AbsorbProbs(const AttentionItem& it, int64_t lkp, float* probs,
                 float* kt) {
  const int64_t dk = it.dk, lk = it.lk, lq = it.lq;
  const int64_t hd = it.heads * dk, ld = hd;
  const __m256 vscale = _mm256_set1_ps(it.scale);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 excluded = _mm256_set1_ps(-1e9f);
  for (int64_t x0 = 0; x0 < lk; x0 += 8) {
    const int64_t keys = std::min<int64_t>(8, lk - x0);
    Transpose(it.k + x0 * ld, ld, keys, hd, kt, 8);
    ZeroSpareLanes(kt, hd, keys);
    __m256 mask_add = _mm256_setzero_ps();
    if (it.keep != nullptr) {
      const __m256 keep = _mm256_maskload_ps(it.keep + x0, LaneMask(keys));
      mask_add = _mm256_andnot_ps(_mm256_cmp_ps(keep, half, _CMP_GT_OQ), excluded);
    }
    for (int64_t j = 0; j < it.heads; ++j) {
      const float* ktj = kt + j * dk * 8;
      for (int64_t r = 0; r < lq; ++r) {
        const float* qr = it.q + r * ld + j * dk;
        __m256 s = _mm256_setzero_ps();
        for (int64_t c = 0; c < dk; ++c) {
          s = _mm256_fmadd_ps(_mm256_broadcast_ss(qr + c),
                              _mm256_loadu_ps(ktj + c * 8), s);
        }
        s = _mm256_mul_ps(s, vscale);
        if (it.keep != nullptr) s = _mm256_add_ps(s, mask_add);
        _mm256_storeu_ps(probs + (j * lq + r) * lkp + x0, s);
      }
    }
  }
  for (int64_t row = 0; row < it.heads * lq; ++row) {
    SoftmaxRowAvx2(probs + row * lkp, probs + row * lkp, lk);
  }
}

// Absorb form: lanes are keys. The item's score rows are scored and
// normalized by AbsorbProbs; the context then interleaves every head's
// chains.
void AttentionAbsorbAvx2(const AttentionItem& it) {
  const int64_t hd = it.heads * it.dk;
  const int64_t lkp = (it.lk + 7) / 8 * 8;
  const int64_t rows = it.heads * it.lq;
  thread_local std::vector<float> buf;
  const size_t need = static_cast<size_t>(rows * lkp + 8 * hd);
  if (buf.size() < need) buf.resize(need);
  float* probs = buf.data();        // [rows][lkp] score rows
  float* kt = probs + rows * lkp;   // [hd][8]: one key block of K^T
  AbsorbProbs(it, lkp, probs, kt);
  AbsorbContexts(probs, lkp, it.v, it.out, hd, it.heads, it.lq, it.lk, it.dk);
}

// dst[(j * dk + c) * 8 + l] = sum over r < lq of a[(j * lq + r) * lda + l] *
// b[r * ld + j * dk + c]: for eight keys (lanes) of every head, the lq-row
// sum of a key column of `a` times a row of `b` (dV^T from P and dOut, dK^T
// from dS and Q), rows in ascending order.
void KeyLaneProducts(const float* a, int64_t lda, const float* b, int64_t ld,
                     int64_t heads, int64_t lq, int64_t dk, float* dst) {
  for (int64_t j = 0; j < heads; ++j) {
    const float* aj = a + j * lq * lda;
    for (int64_t c = 0; c < dk; ++c) {
      const float* bc = b + j * dk + c;
      __m256 acc = _mm256_setzero_ps();
      for (int64_t r = 0; r < lq; ++r) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(aj + r * lda),
                              _mm256_broadcast_ss(bc + r * ld), acc);
      }
      _mm256_storeu_ps(dst + (j * dk + c) * 8, acc);
    }
  }
}

// Backward of the absorb form, lanes keys. A first pass over key blocks
// writes dV and stores dP with the row sums of dP o P kept per lane; a
// second turns dP into dS and writes dK; dQ = dS K then runs as the
// forward's context chains.
void AttentionAbsorbBackwardAvx2(const AttentionGradItem& g) {
  const AttentionItem& it = g.item;
  const int64_t dk = it.dk, lk = it.lk, lq = it.lq;
  const int64_t hd = it.heads * dk, ld = hd;
  const int64_t lkp = (lk + 7) / 8 * 8;
  const int64_t rows = it.heads * lq;
  thread_local std::vector<float> buf;
  const size_t need =
      static_cast<size_t>(2 * rows * lkp + 16 * hd + 8 * rows);
  if (buf.size() < need) buf.resize(need);
  float* probs = buf.data();       // [rows][lkp]: P
  float* ds = probs + rows * lkp;  // [rows][lkp]: dP, then dS
  float* blk = ds + rows * lkp;    // [hd][8]: a key block of K^T or V^T
  float* gblk = blk + 8 * hd;      // [hd][8]: the block's dV^T or dK^T
  float* rowdot = gblk + 8 * hd;   // [rows][8]: rowsum(dP o P) by lane
  AbsorbProbs(it, lkp, probs, blk);
  for (int64_t row = 0; row < rows; ++row) {
    std::fill(probs + row * lkp + lk, probs + (row + 1) * lkp, 0.0f);
  }
  std::fill(rowdot, rowdot + 8 * rows, 0.0f);
  for (int64_t x0 = 0; x0 < lk; x0 += 8) {
    const int64_t keys = std::min<int64_t>(8, lk - x0);
    Transpose(it.v + x0 * ld, ld, keys, hd, blk, 8);
    ZeroSpareLanes(blk, hd, keys);
    for (int64_t j = 0; j < it.heads; ++j) {
      const float* vtj = blk + j * dk * 8;
      for (int64_t r = 0; r < lq; ++r) {
        const float* dor = g.dout + r * ld + j * dk;
        const int64_t row = j * lq + r;
        __m256 dp = _mm256_setzero_ps();
        for (int64_t c = 0; c < dk; ++c) {
          dp = _mm256_fmadd_ps(_mm256_broadcast_ss(dor + c),
                               _mm256_loadu_ps(vtj + c * 8), dp);
        }
        _mm256_storeu_ps(ds + row * lkp + x0, dp);
        const __m256 p = _mm256_loadu_ps(probs + row * lkp + x0);
        float* dot_row = rowdot + row * 8;
        _mm256_storeu_ps(dot_row,
                         _mm256_fmadd_ps(dp, p, _mm256_loadu_ps(dot_row)));
      }
    }
    KeyLaneProducts(probs + x0, lkp, g.dout, ld, it.heads, lq, dk, gblk);
    Transpose(gblk, 8, hd, keys, g.dv + x0 * ld, ld);
  }
  if (AllKeysExcluded(it.keep, lk)) {
    std::fill(g.dq, g.dq + lq * ld, 0.0f);
    std::fill(g.dkk, g.dkk + lk * ld, 0.0f);
    return;
  }
  const __m256 vscale = _mm256_set1_ps(it.scale);
  for (int64_t row = 0; row < rows; ++row) {
    const __m256 dot_p =
        _mm256_set1_ps(HorizontalSum(_mm256_loadu_ps(rowdot + row * 8)));
    float* dsrow = ds + row * lkp;
    const float* prow = probs + row * lkp;
    for (int64_t x0 = 0; x0 < lk; x0 += 8) {
      const __m256 dp = _mm256_loadu_ps(dsrow + x0);
      _mm256_storeu_ps(dsrow + x0,
                       _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(prow + x0),
                                                   _mm256_sub_ps(dp, dot_p)),
                                     vscale));
    }
  }
  for (int64_t x0 = 0; x0 < lk; x0 += 8) {
    KeyLaneProducts(ds + x0, lkp, it.q, ld, it.heads, lq, dk, gblk);
    Transpose(gblk, 8, hd, std::min<int64_t>(8, lk - x0), g.dkk + x0 * ld, ld);
  }
  AbsorbContexts(ds, lkp, it.k, g.dq, ld, it.heads, lq, lk, dk);
}

}  // namespace

namespace internal {

const SimdKernels* Avx2Kernels() {
  static const SimdKernels table = {
      /*name=*/"avx2",
      /*gemm_mr=*/kAvx2MR,
      /*gemm_tile=*/GemmTileAvx2,
      /*gemm_tail=*/GemmTailAvx2,
      /*gemm_nt_small=*/GemmNTSmallAvx2,
      /*gemm_nn_small=*/GemmNNSmallAvx2,
      /*reduce_max=*/ReduceMaxAvx2,
      /*exp_sum=*/ExpSumAvx2,
      /*softmax_row=*/SoftmaxRowAvx2,
      /*attention_absorb=*/AttentionAbsorbAvx2,
      /*attention_broadcast=*/AttentionBroadcastAvx2,
      /*attention_absorb_backward=*/AttentionAbsorbBackwardAvx2,
      /*attention_broadcast_backward=*/AttentionBroadcastBackwardAvx2,
  };
  return &table;
}

}  // namespace internal

}  // namespace sstban::tensor::simd

#else  // non-x86 builds: the dispatcher falls back to the scalar tier.

namespace sstban::tensor::simd::internal {
const SimdKernels* Avx2Kernels() { return nullptr; }
}  // namespace sstban::tensor::simd::internal

#endif
