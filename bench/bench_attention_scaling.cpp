// Micro-benchmark for the paper's §V-D5 complexity claim: bottleneck
// attention is O(L * R) in the sequence length L (R fixed reference
// points), while full self-attention is O(L^2). This is the
// hardware-neutral half of Table VII.
//
// Times four series with MeasureSeconds (min and mean of K repetitions):
// the bottleneck and the full forward at L = 32..512, and the bottleneck and
// the full train step (forward, loss, backward) at L = 32..256. Each series
// fits t = a + b*L and t = a + b*L^2 to its min-of-K times by least squares
// and names the fit with the smaller RMS residual (relative to the series'
// mean time). The intercept a takes up the fixed per-call cost, which a fit
// through the origin would read as slow growth.
//
// Also reports the peak live tensor bytes (MemoryTracker::peak_bytes) of one
// forward with the tape recording at L = 128, 512 and 2,048, the module's
// weights and input included. The fused attention keeps no L x L tensor on
// either path, so both grow linearly in L; the paper's "w/o STBA runs out of
// memory" came from materialized attention.
//
// Prints a table, then one JSON object last. No timing is gated.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <type_traits>
#include <vector>

#include "autograd/ops.h"
#include "common/timing.h"
#include "core/memory_tracker.h"
#include "core/rng.h"
#include "sstban/bottleneck_attention.h"
#include "tensor/simd/kernels.h"

namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
using sstban::bench::MeasureSeconds;
using sstban::bench::Timing;
using sstban::core::MemoryTracker;
using sstban::core::Rng;
using sstban::sstban::BottleneckAttention;
using sstban::sstban::FullSelfAttention;

constexpr int64_t kDim = 16;
constexpr int64_t kHeads = 4;
constexpr int64_t kRefs = 3;

template <typename Attention>
std::unique_ptr<Attention> MakeAttention(Rng& rng) {
  if constexpr (std::is_same_v<Attention, BottleneckAttention>) {
    return std::make_unique<BottleneckAttention>(kDim, kDim, kRefs, kHeads,
                                                 rng);
  } else {
    return std::make_unique<FullSelfAttention>(kDim, kDim, kHeads, rng);
  }
}

template <typename Attention>
Timing TimeForward(int64_t len) {
  Rng rng(1);
  auto attn = MakeAttention<Attention>(rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  ag::NoGradGuard no_grad;
  return MeasureSeconds([&] { attn->Forward(x); });
}

template <typename Attention>
Timing TimeTrainStep(int64_t len) {
  Rng rng(2);
  auto attn = MakeAttention<Attention>(rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  return MeasureSeconds([&] {
    ag::Variable loss = ag::MeanAll(ag::Square(attn->Forward(x)));
    attn->ZeroGrad();
    loss.Backward();
  });
}

// Peak live tensor bytes of one forward with the tape recording.
template <typename Attention>
int64_t ForwardPeakBytes(int64_t len) {
  Rng rng(3);
  auto attn = MakeAttention<Attention>(rng);
  ag::Variable x(t::Tensor::RandomNormal(t::Shape{1, len, kDim}, rng));
  MemoryTracker::Global().ResetPeak();
  ag::Variable y = attn->Forward(x);
  return MemoryTracker::Global().peak_bytes();
}

// The least-squares fit t = a + b * x, and its RMS residual over the mean t.
struct Fit {
  double a = 0.0, b = 0.0, rms = 0.0;
};

Fit FitAffine(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double mean_x = 0.0, mean_y = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    mean_x += x[i] / n;
    mean_y += y[i] / n;
  }
  double sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mean_x) * (x[i] - mean_x);
    sxy += (x[i] - mean_x) * (y[i] - mean_y);
  }
  Fit fit;
  fit.b = sxy / sxx;
  fit.a = mean_y - fit.b * mean_x;
  double squares = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double residual = fit.a + fit.b * x[i] - y[i];
    squares += residual * residual;
  }
  fit.rms = std::sqrt(squares / n) / mean_y;
  return fit;
}

struct Series {
  const char* name = nullptr;
  std::vector<int64_t> lengths;
  std::vector<Timing> timings;
  Fit linear, quadratic;  // in L and in L^2

  const char* better_fit() const {
    return linear.rms <= quadratic.rms ? "linear" : "quadratic";
  }
};

// Times `time` at each length and fits the min-of-K times.
Series RunSeries(const char* name, const std::vector<int64_t>& lengths,
                 Timing (*time)(int64_t len)) {
  Series s;
  s.name = name;
  s.lengths = lengths;
  std::vector<double> l, l2, min_s;
  for (int64_t len : lengths) {
    s.timings.push_back(time(len));
    l.push_back(static_cast<double>(len));
    l2.push_back(static_cast<double>(len) * static_cast<double>(len));
    min_s.push_back(s.timings.back().min_s);
  }
  s.linear = FitAffine(l, min_s);
  s.quadratic = FitAffine(l2, min_s);
  return s;
}

}  // namespace

int main() {
  const std::vector<int64_t> forward_lengths = {32, 64, 128, 256, 512};
  const std::vector<int64_t> train_lengths = {32, 64, 128, 256};
  const std::vector<int64_t> memory_lengths = {128, 512, 2048};
  const std::vector<Series> series = {
      RunSeries("bottleneck_forward", forward_lengths,
                TimeForward<BottleneckAttention>),
      RunSeries("full_forward", forward_lengths,
                TimeForward<FullSelfAttention>),
      RunSeries("bottleneck_train_step", train_lengths,
                TimeTrainStep<BottleneckAttention>),
      RunSeries("full_train_step", train_lengths,
                TimeTrainStep<FullSelfAttention>),
  };
  std::printf("%-22s %6s %10s %10s\n", "series", "L", "min_ms", "mean_ms");
  for (const Series& s : series) {
    for (size_t i = 0; i < s.lengths.size(); ++i) {
      std::printf("%-22s %6lld %10.4f %10.4f\n", s.name,
                  static_cast<long long>(s.lengths[i]),
                  s.timings[i].min_s * 1e3, s.timings[i].mean_s * 1e3);
    }
  }
  std::printf("\n%-22s %-9s %12s %7s %12s %7s\n", "fit a + b*x", "better",
              "b ns/L", "RMS", "b ns/L^2", "RMS");
  for (const Series& s : series) {
    std::printf("%-22s %-9s %12.2f %6.1f%% %12.4f %6.1f%%\n", s.name,
                s.better_fit(), s.linear.b * 1e9, s.linear.rms * 100.0,
                s.quadratic.b * 1e9, s.quadratic.rms * 100.0);
  }

  struct PeakSeries {
    const char* name;
    int64_t (*measure)(int64_t len);
    std::vector<int64_t> bytes;
  };
  PeakSeries peaks[] = {
      {"bottleneck_forward", ForwardPeakBytes<BottleneckAttention>, {}},
      {"full_forward", ForwardPeakBytes<FullSelfAttention>, {}},
  };
  std::printf("\n%-22s %6s %12s\n", "peak memory", "L", "peak_bytes");
  for (PeakSeries& p : peaks) {
    for (int64_t len : memory_lengths) {
      p.bytes.push_back(p.measure(len));
      std::printf("%-22s %6lld %12lld\n", p.name, static_cast<long long>(len),
                  static_cast<long long>(p.bytes.back()));
    }
  }

  std::printf("{\n  \"bench\": \"attention_scaling\",\n  \"tier\": \"%s\",\n"
              "  \"dim\": %lld, \"heads\": %lld, \"refs\": %lld,\n"
              "  \"series\": {\n",
              t::simd::Kernels().name, static_cast<long long>(kDim),
              static_cast<long long>(kHeads), static_cast<long long>(kRefs));
  for (size_t k = 0; k < series.size(); ++k) {
    const Series& s = series[k];
    const size_t n = s.lengths.size();
    std::printf("    \"%s\": {\"lengths\": [", s.name);
    for (size_t i = 0; i < n; ++i) {
      std::printf("%s%lld", i == 0 ? "" : ", ",
                  static_cast<long long>(s.lengths[i]));
    }
    std::printf("], \"min_ms\": [");
    for (size_t i = 0; i < n; ++i) {
      std::printf("%s%.5f", i == 0 ? "" : ", ", s.timings[i].min_s * 1e3);
    }
    std::printf("], \"mean_ms\": [");
    for (size_t i = 0; i < n; ++i) {
      std::printf("%s%.5f", i == 0 ? "" : ", ", s.timings[i].mean_s * 1e3);
    }
    std::printf("],\n      \"linear\": {\"intercept_ms\": %.5f, \"ns_per_l\": "
                "%.3f, \"rms\": %.4f},\n"
                "      \"quadratic\": {\"intercept_ms\": %.5f, "
                "\"ns_per_l2\": %.5f, \"rms\": %.4f},\n"
                "      \"better_fit\": \"%s\"}%s\n",
                s.linear.a * 1e3, s.linear.b * 1e9, s.linear.rms,
                s.quadratic.a * 1e3, s.quadratic.b * 1e9, s.quadratic.rms,
                s.better_fit(), k + 1 < series.size() ? "," : "");
  }
  std::printf("  },\n  \"peak_bytes\": {\n");
  for (size_t k = 0; k < std::size(peaks); ++k) {
    std::printf("    \"%s\": {", peaks[k].name);
    for (size_t i = 0; i < memory_lengths.size(); ++i) {
      std::printf("%s\"%lld\": %lld", i == 0 ? "" : ", ",
                  static_cast<long long>(memory_lengths[i]),
                  static_cast<long long>(peaks[k].bytes[i]));
    }
    std::printf("}%s\n", k + 1 < std::size(peaks) ? "," : "");
  }
  std::printf("  }\n}\n");
  return 0;
}
