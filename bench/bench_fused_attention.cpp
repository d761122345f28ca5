// Fused-attention kernel benchmark: the fused softmax(scale*QK^T+mask)V pass
// vs the unfused Bmm/MulScalar/Softmax/Bmm chain, at a generic square shape
// and at the three attention shapes of the pems_burst serving forward (PEMS04
// widths d = 16, h = 8; B = 8 windows of P = 12 steps over N = 307 nodes; R =
// 3 reference points):
//   absorb    — spatial stage one: R queries over N keys, dk = 2d/h = 4;
//   broadcast — spatial stage two: N queries over R keys, dk = d/h = 2;
//   temporal  — temporal stage two: P queries over R keys, dk = 2.
// These run on the projections' own [batch, L, h*dk] layout; the unfused
// chain gets head-split copies, and its time includes the split and merge.
// The fused kernel's end-to-end cost is measured by the serving forward
// that uses it (perfbench's pems_burst).
//
// The backward section times the fused backward (FusedAttentionBackward, the
// tier's backward form where the shape has one) against the unfused tape
// chain's Backward, at the five attention shapes of one train_pems step
// (B = 4 windows, N = 307, P = 12): TBA absorb and broadcast over each
// node's P steps, SBA absorb and broadcast over each step's N nodes, and
// transform attention (P queries over P keys per node). Each row also gives
// the fused backward's time over the fused forward's. The TBA and SBA absorb
// shapes run again with a seeded tenth of each item's keys excluded, as the
// self-supervised branch's patch mask excludes keys; those rows give their
// forward and backward time over the unmasked row's (masked_over_unmasked).
//
// Emits JSON on stdout (snapshot: bench/BENCH_fused_attention.json); pass a
// path as argv[1] to also write it. Exits nonzero when the two paths
// disagree on any forward bit (the fused kernel must match the unfused chain
// of the active SIMD tier at every shape, masked or not) or on any gradient
// beyond AllClose (atol 1e-5, rtol 1e-4). No timing is gated.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/timing.h"
#include "core/rng.h"
#include "tensor/fused_attention.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels.h"
#include "tensor/tensor.h"

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
using sstban::bench::BenchNowSeconds;
using sstban::bench::MeasureSeconds;
using sstban::bench::Timing;

namespace {

struct Case {
  const char* name;
  int64_t batch, heads, lq, lk, dk;
};

// [batch, L, h*dk] -> [batch*h, L, dk] and back.
t::Tensor SplitHeads(const t::Tensor& x, int64_t heads) {
  int64_t batch = x.dim(0), len = x.dim(1), dk = x.dim(2) / heads;
  return t::Permute(x.Reshape(t::Shape{batch, len, heads, dk}), {0, 2, 1, 3})
      .Reshape(t::Shape{batch * heads, len, dk});
}
t::Tensor MergeHeads(const t::Tensor& x, int64_t heads) {
  int64_t batch = x.dim(0) / heads, len = x.dim(1), dk = x.dim(2);
  return t::Permute(x.Reshape(t::Shape{batch, heads, len, dk}), {0, 2, 1, 3})
      .Reshape(t::Shape{batch, len, heads * dk});
}

// Runs one case; appends its JSON object to `json` and returns whether the
// fused result matches the unfused chain bit for bit.
bool RunCase(const Case& c, sstban::core::Rng& rng, std::string* json) {
  const int64_t hd = c.heads * c.dk;
  t::Tensor q = t::Tensor::RandomNormal(t::Shape{c.batch, c.lq, hd}, rng);
  t::Tensor k = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
  t::Tensor v = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
  const float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
  t::AttentionDims dims = t::FusedAttentionDims(q, k, v, nullptr, c.heads);
  t::Tensor fused = t::Tensor::Empty(t::Shape{c.batch, c.lq, hd});
  t::Tensor unfused;

  Timing fused_t = MeasureSeconds([&] {
    t::FusedAttentionInto(q.data(), k.data(), v.data(), nullptr, fused.data(),
                          dims, scale);
  });
  Timing unfused_t = MeasureSeconds([&] {
    t::Tensor qh = SplitHeads(q, c.heads);
    t::Tensor kh = SplitHeads(k, c.heads);
    t::Tensor vh = SplitHeads(v, c.heads);
    t::Tensor scores = t::MulScalar(t::Bmm(qh, kh, false, true), scale);
    unfused = MergeHeads(t::Bmm(t::Softmax(scores), vh, false, false), c.heads);
  });
  const bool bitwise =
      std::memcmp(fused.data(), unfused.data(),
                  static_cast<size_t>(fused.size()) * sizeof(float)) == 0;
  // 2 GEMMs; softmax flops ignored (they are identical on both paths).
  const double flops = 4.0 * c.batch * c.heads * c.lq * c.lk * c.dk;
  const double speedup = unfused_t.min_s / fused_t.min_s;
  std::printf("%-9s [%lld x h%lld: %lld over %lld, dk=%lld]: fused %.3f ms "
              "(%.2f GF/s), unfused %.3f ms, speedup %.2fx, bitwise %s\n",
              c.name, static_cast<long long>(c.batch),
              static_cast<long long>(c.heads), static_cast<long long>(c.lq),
              static_cast<long long>(c.lk), static_cast<long long>(c.dk),
              fused_t.min_s * 1e3, flops / fused_t.min_s * 1e-9,
              unfused_t.min_s * 1e3, speedup, bitwise ? "true" : "false");
  char row[512];
  std::snprintf(row, sizeof(row),
                "  \"%s\": {\"batch\": %lld, \"heads\": %lld, \"lq\": %lld, "
                "\"lk\": %lld, \"dk\": %lld, \"fused_ms_min\": %.3f, "
                "\"fused_ms_mean\": %.3f, \"unfused_ms_min\": %.3f, "
                "\"unfused_ms_mean\": %.3f, \"fused_gflops\": %.2f, "
                "\"speedup\": %.2f, \"bitwise\": %s},\n",
                c.name, static_cast<long long>(c.batch),
                static_cast<long long>(c.heads), static_cast<long long>(c.lq),
                static_cast<long long>(c.lk), static_cast<long long>(c.dk),
                fused_t.min_s * 1e3, fused_t.mean_s * 1e3,
                unfused_t.min_s * 1e3, unfused_t.mean_s * 1e3,
                flops / fused_t.min_s * 1e-9, speedup,
                bitwise ? "true" : "false");
  *json += row;
  return bitwise;
}

// Per-call seconds of a tape's Backward alone: `record` records a fresh
// forward (untimed) before each call.
template <typename Record>
Timing MeasureBackward(Record&& record, int reps = 5,
                       double target_rep_seconds = 0.05) {
  record().Backward();  // warm-up
  Timing timing;
  timing.reps = reps;
  double total = 0.0, best = 0.0;
  for (int r = 0; r < reps; ++r) {
    double spent = 0.0;
    int calls = 0;
    while (spent < target_rep_seconds) {
      ag::Variable loss = record();
      const double start = BenchNowSeconds();
      loss.Backward();
      spent += BenchNowSeconds() - start;
      ++calls;
    }
    const double per_call = spent / calls;
    total += per_call;
    best = r == 0 ? per_call : std::min(best, per_call);
    timing.iters = calls;
  }
  timing.mean_s = total / reps;
  timing.min_s = best;
  return timing;
}

// A tenth of an item's lk keys, rounded, and at least one.
int64_t TenthOfKeys(int64_t lk) {
  return std::max<int64_t>(1, (lk + 5) / 10);
}

// [batch, lk] keep rows, each excluding TenthOfKeys(lk) seeded keys.
t::Tensor ExcludeTenthOfKeys(int64_t batch, int64_t lk,
                             sstban::core::Rng& rng) {
  t::Tensor keep = t::Tensor::Ones(t::Shape{batch, lk});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t x : rng.SampleWithoutReplacement(lk, TenthOfKeys(lk))) {
      keep.data()[b * lk + x] = 0.0f;
    }
  }
  return keep;
}

// The chain's additive mask, [batch * heads, lq, lk] rows of
// keep ? 0 : -1e9 from [batch, lk] keep rows shared by an item's heads.
t::Tensor AdditiveMask(const t::Tensor& keep, int64_t heads, int64_t lq) {
  const int64_t batch = keep.dim(0), lk = keep.dim(1);
  t::Tensor additive = t::Tensor::Empty(t::Shape{batch * heads, lq, lk});
  for (int64_t r = 0; r < batch * heads * lq; ++r) {
    const float* mrow = keep.data() + (r / (heads * lq)) * lk;
    for (int64_t x = 0; x < lk; ++x) {
      additive.data()[r * lk + x] = mrow[x] > 0.5f ? 0.0f : -1e9f;
    }
  }
  return additive;
}

// What one training-step row measured of the fused op.
struct StepResult {
  Timing forward, backward;
  bool bitwise = false;   // forward vs the chain's, bit for bit
  bool allclose = false;  // gradients vs the chain's, AllClose
};

// One training-step shape: fused forward and backward vs the unfused tape
// chain, unmasked, or (given the unmasked row of the same shape) with a
// seeded tenth of each item's keys excluded and the masked/unmasked time
// ratios. Appends its JSON object to `json`.
StepResult RunBackwardCase(const Case& c, bool shared_q,
                           const StepResult* unmasked, sstban::core::Rng& rng,
                           std::string* json) {
  const int64_t hd = c.heads * c.dk;
  t::Tensor q = t::Tensor::RandomNormal(
      t::Shape{shared_q ? 1 : c.batch, c.lq, hd}, rng);
  t::Tensor k = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
  t::Tensor v = t::Tensor::RandomNormal(t::Shape{c.batch, c.lk, hd}, rng);
  t::Tensor dout = t::Tensor::RandomNormal(t::Shape{c.batch, c.lq, hd}, rng);
  t::Tensor keep;
  if (unmasked != nullptr) keep = ExcludeTenthOfKeys(c.batch, c.lk, rng);
  const t::Tensor* key_mask = unmasked != nullptr ? &keep : nullptr;
  const float* keep_data = key_mask != nullptr ? keep.data() : nullptr;
  const float scale = 1.0f / std::sqrt(static_cast<float>(c.dk));
  t::AttentionDims dims = t::FusedAttentionDims(q, k, v, key_mask, c.heads);
  t::Tensor out = t::Tensor::Empty(t::Shape{c.batch, c.lq, hd});
  t::Tensor dq = t::Tensor::Empty(dout.shape());
  t::Tensor dk = t::Tensor::Empty(k.shape());
  t::Tensor dv = t::Tensor::Empty(v.shape());

  StepResult result;
  result.forward = MeasureSeconds([&] {
    t::FusedAttentionInto(q.data(), k.data(), v.data(), keep_data, out.data(),
                          dims, scale);
  });
  result.backward = MeasureSeconds([&] {
    t::FusedAttentionBackward(q.data(), k.data(), v.data(), keep_data,
                              dout.data(), dq.data(), dk.data(), dv.data(),
                              dims, scale);
  });
  // The chain on head-split copies; a shared Q is first broadcast to every
  // item, so its gradient is summed over the batch as the fused op's is.
  ag::Variable qc, kc, vc, merged;
  auto record = [&] {
    qc = ag::Variable(q, /*requires_grad=*/true);
    kc = ag::Variable(k, /*requires_grad=*/true);
    vc = ag::Variable(v, /*requires_grad=*/true);
    ag::Variable qb = qc;
    if (shared_q) {
      qb = ag::Add(qc, ag::Variable(t::Tensor::Zeros(dout.shape())));
    }
    auto split = [&](const ag::Variable& x, int64_t len) {
      return ag::Reshape(
          ag::Permute(ag::Reshape(x, t::Shape{c.batch, len, c.heads, c.dk}),
                      {0, 2, 1, 3}),
          t::Shape{c.batch * c.heads, len, c.dk});
    };
    ag::Variable scores = ag::MulScalar(
        ag::Bmm(split(qb, c.lq), split(kc, c.lk), false, true), scale);
    if (key_mask != nullptr) {
      scores = ag::Add(scores,
                       ag::Variable(AdditiveMask(keep, c.heads, c.lq)));
    }
    ag::Variable ctx = ag::Bmm(ag::Softmax(scores), split(vc, c.lk));
    merged = ag::Reshape(
        ag::Permute(ag::Reshape(ctx, t::Shape{c.batch, c.heads, c.lq, c.dk}),
                    {0, 2, 1, 3}),
        dout.shape());
    // d(loss)/d(merged) = dout.
    return ag::SumAll(ag::Mul(merged, ag::Variable(dout)));
  };
  Timing chain_t = MeasureBackward(record);

  result.bitwise =
      std::memcmp(out.data(), merged.value().data(),
                  static_cast<size_t>(out.size()) * sizeof(float)) == 0;
  const t::Tensor fused_dq = shared_q ? t::Sum(dq, 0, /*keepdim=*/true) : dq;
  result.allclose = t::AllClose(fused_dq, qc.grad(), 1e-5f, 1e-4f) &&
                    t::AllClose(dk, kc.grad(), 1e-5f, 1e-4f) &&
                    t::AllClose(dv, vc.grad(), 1e-5f, 1e-4f);
  const double forward_ms = result.forward.min_s * 1e3;
  const double backward_ms = result.backward.min_s * 1e3;
  const double ratio = backward_ms / forward_ms;
  std::printf("%-18s [%lld x h%lld: %lld over %lld, dk=%lld]: backward %.3f "
              "ms = %.2fx forward (%.3f ms), chain backward %.3f ms, "
              "speedup %.2fx, bitwise %s, allclose %s\n",
              c.name, static_cast<long long>(c.batch),
              static_cast<long long>(c.heads), static_cast<long long>(c.lq),
              static_cast<long long>(c.lk), static_cast<long long>(c.dk),
              backward_ms, ratio, forward_ms, chain_t.min_s * 1e3,
              chain_t.min_s / result.backward.min_s,
              result.bitwise ? "true" : "false",
              result.allclose ? "true" : "false");
  char masked_fields[160] = "";
  if (unmasked != nullptr) {
    const double forward_ratio = result.forward.min_s / unmasked->forward.min_s;
    const double backward_ratio =
        result.backward.min_s / unmasked->backward.min_s;
    std::printf("%-18s masked over unmasked: forward %.2fx, backward %.2fx\n",
                "", forward_ratio, backward_ratio);
    std::snprintf(masked_fields, sizeof(masked_fields),
                  ", \"excluded_keys_per_item\": %lld, "
                  "\"masked_over_unmasked\": {\"forward\": %.2f, "
                  "\"backward\": %.2f}",
                  static_cast<long long>(TenthOfKeys(c.lk)),
                  forward_ratio, backward_ratio);
  }
  char row[768];
  std::snprintf(row, sizeof(row),
                "    \"%s\": {\"batch\": %lld, \"heads\": %lld, \"lq\": %lld, "
                "\"lk\": %lld, \"dk\": %lld, \"shared_q\": %s, "
                "\"forward_ms_min\": %.3f, \"backward_ms_min\": %.3f, "
                "\"backward_ms_mean\": %.3f, \"chain_backward_ms_min\": %.3f, "
                "\"backward_over_forward\": %.2f%s, \"bitwise\": %s, "
                "\"allclose\": %s},\n",
                c.name, static_cast<long long>(c.batch),
                static_cast<long long>(c.heads), static_cast<long long>(c.lq),
                static_cast<long long>(c.lk), static_cast<long long>(c.dk),
                shared_q ? "true" : "false", forward_ms, backward_ms,
                result.backward.mean_s * 1e3, chain_t.min_s * 1e3, ratio,
                masked_fields, result.bitwise ? "true" : "false",
                result.allclose ? "true" : "false");
  *json += row;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sstban::core::Rng rng(11);
  const std::vector<Case> cases = {
      {"kernel", 96, 1, 96, 96, 8},
      {"absorb", 8 * 12, 8, 3, 307, 4},
      {"broadcast", 8 * 12, 8, 307, 3, 2},
      {"temporal", 8 * 307, 8, 12, 3, 2},
  };
  std::string rows;
  bool bitwise = true;
  for (const Case& c : cases) bitwise = RunCase(c, rng, &rows) && bitwise;

  // One train_pems step's attentions: B = 4 windows, N = 307, P = 12, R = 3.
  // Absorb's query set is the shared reference points.
  const int64_t batch = 4, nodes = 307, steps = 12, refs = 3;
  struct StepCase {
    Case c;
    bool shared_q;
    const char* masked;  // the masked row's name; null: no masked row
  };
  const std::vector<StepCase> step_cases = {
      {{"tba_absorb", batch * nodes, 8, refs, steps, 4}, true,
       "tba_absorb_masked"},
      {{"tba_broadcast", batch * nodes, 8, steps, refs, 2}, false, nullptr},
      {{"sba_absorb", batch * steps, 8, refs, nodes, 4}, true,
       "sba_absorb_masked"},
      {{"sba_broadcast", batch * steps, 8, nodes, refs, 2}, false, nullptr},
      {{"transform", batch * nodes, 8, steps, steps, 2}, false, nullptr},
  };
  std::string backward_rows;
  bool allclose = true;
  for (const StepCase& s : step_cases) {
    const StepResult unmasked =
        RunBackwardCase(s.c, s.shared_q, nullptr, rng, &backward_rows);
    bitwise = bitwise && unmasked.bitwise;
    allclose = allclose && unmasked.allclose;
    if (s.masked == nullptr) continue;
    Case masked_case = s.c;
    masked_case.name = s.masked;
    const StepResult masked = RunBackwardCase(masked_case, s.shared_q,
                                              &unmasked, rng, &backward_rows);
    bitwise = bitwise && masked.bitwise;
    allclose = allclose && masked.allclose;
  }
  backward_rows.resize(backward_rows.size() - 2);  // the last ",\n"

  std::ostringstream json;
  json << "{\n  \"bench\": \"fused_attention\",\n  \"tier\": \""
       << t::simd::Kernels().name << "\",\n"
       << rows << "  \"bitwise_identical\": " << (bitwise ? "true" : "false")
       << ",\n  \"backward\": {\n" << backward_rows
       << "\n  },\n  \"gradients_allclose\": "
       << (allclose ? "true" : "false") << "\n}\n";
  std::fputs(json.str().c_str(), stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << json.str();
  }
  if (!bitwise) {
    std::fprintf(stderr,
                 "FAIL: fused kernel disagrees with the unfused chain\n");
  }
  if (!allclose) {
    std::fprintf(stderr,
                 "FAIL: fused gradients disagree with the unfused chain's\n");
  }
  return bitwise && allclose ? 0 : 1;
}
