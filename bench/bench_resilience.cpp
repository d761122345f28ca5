// Resilience-layer overhead gate: proves the serving hot path pays nothing
// for the machinery that only matters when things break. Measures, with a
// counting global operator new (the tensor-layer MemoryTracker cannot see
// std::function/string/vector allocations):
//
//   - a disarmed failpoint probe        (the guard every request crosses)
//   - a failpoint probe while an UNRELATED failpoint is armed (slow guard)
//   - CircuitBreaker Allow + RecordSuccess in the closed state, warm ring
//   - InputSanitizer on a clean window  (the single read-only scan)
//   - BatcherWatchdog start/end/Wedged marks
//   - a warm admission verdict (deadline judged against the batch p50) and
//     its OnTerminal, plus one batch-estimate Record
//
// Exits nonzero when any warm hot path heap-allocates, or when the disarmed
// failpoint stops being branch-cheap. Latency gates are deliberately loose —
// CI boxes are noisy and often single-core — the hard gate is allocations,
// which are deterministic. Emits one JSON object on stdout; pass a path as
// argv[1] to also write it there.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/alloc_counter.h"
#include "common/timing.h"
#include "core/failpoint.h"
#include "serving/circuit_breaker.h"
#include "serving/health.h"
#include "serving/overload/overload.h"
#include "serving/sanitizer.h"
#include "tensor/tensor.h"

namespace {

namespace bench = ::sstban::bench;
namespace core = ::sstban::core;
namespace serving = ::sstban::serving;
namespace t = ::sstban::tensor;

struct Measurement {
  double ns_per_op = 0.0;
  long long allocs = 0;  // total across all iterations
};

// Runs `op` `iters` times with the allocation counter live; each op feeds
// the volatile sink below so the loop cannot be elided.
template <typename Op>
Measurement Measure(long long iters, Op&& op) {
  Measurement m;
  bench::StartCountingAllocs();
  double start = bench::BenchNowSeconds();
  for (long long i = 0; i < iters; ++i) op();
  double elapsed = bench::BenchNowSeconds() - start;
  m.allocs = bench::StopCountingAllocs();
  m.ns_per_op = elapsed * 1e9 / static_cast<double>(iters);
  return m;
}

volatile long long g_sink = 0;

// Feeds `value` into the volatile sink so the measured call is not elided.
void Sink(bool value) { g_sink = g_sink + (value ? 1 : 0); }

}  // namespace

int main(int argc, char** argv) {
  constexpr long long kFailpointIters = 2'000'000;
  constexpr long long kBreakerIters = 200'000;
  constexpr long long kSanitizerIters = 20'000;
  constexpr long long kWatchdogIters = 1'000'000;
  constexpr long long kAdmissionIters = 200'000;

  // 1. Disarmed failpoint: one relaxed load + a predictable branch.
  core::FailPoint::ClearAll();
  Measurement fp_disarmed = Measure(kFailpointIters, [] {
    Sink(core::FailPointStatus("bench_resilience_probe").ok());
  });

  // 1b. The five streaming sites (ingest_append, adapt_step, shadow_eval,
  //     promote_swap, adapt_ckpt_write), probed disarmed in sequence — the
  //     ingest site sits on the per-slice hot path, the rest on the
  //     adaptation control loop; all must stay branch-cheap. One op = all
  //     five probes.
  static const char* kStreamingSites[] = {
      "ingest_append", "adapt_step", "shadow_eval", "promote_swap",
      "adapt_ckpt_write"};
  Measurement fp_streaming = Measure(kFailpointIters / 5, [] {
    for (const char* site : kStreamingSites) {
      Sink(core::FailPointStatus(site).ok());
    }
  });

  // 2. Same probe while an unrelated failpoint is armed: the guard opens and
  //    every hit takes the registry lock. Reported, not gated — this is the
  //    chaos-testing configuration, never production.
  if (!core::FailPoint::Set("bench_resilience_other", "delay(0)").ok()) {
    std::fprintf(stderr, "FAIL: could not arm bench_resilience_other\n");
    return 1;
  }
  Measurement fp_armed_other = Measure(kFailpointIters / 10, [] {
    Sink(core::FailPointStatus("bench_resilience_probe").ok());
  });
  core::FailPoint::ClearAll();

  // 3. Closed-state circuit breaker, warm ring: Allow + RecordSuccess must
  //    be allocation-free once the fixed-capacity window has filled.
  serving::CircuitBreaker breaker;
  for (int i = 0; i < 256; ++i) {  // fill the ring past its window
    breaker.Allow();
    breaker.RecordSuccess();
  }
  Measurement breaker_closed = Measure(kBreakerIters, [&breaker] {
    Sink(breaker.Allow());
    breaker.RecordSuccess();
  });

  // 4. Clean-window sanitizer scan: read-only, no clone, no mask.
  serving::SanitizerOptions san_options;
  san_options.degradable_channels = {0};
  serving::InputSanitizer sanitizer(san_options);
  t::Tensor window = t::Tensor::Ones(t::Shape{12, 32, 3});
  {  // warm once outside the counter (first Status/StatusOr pages etc.)
    auto r = sanitizer.Sanitize(&window);
    if (!r.ok() || !r.value().clean()) {
      std::fprintf(stderr, "FAIL: warmup sanitize was not clean\n");
      return 1;
    }
  }
  Measurement sanitize_clean = Measure(kSanitizerIters, [&] {
    auto r = sanitizer.Sanitize(&window);
    Sink(r.ok() && r.value().clean());
  });

  // 5. Watchdog marks: the per-batch cost the worker loop pays.
  serving::BatcherWatchdog watchdog;
  auto now = serving::Clock::now();
  Measurement watchdog_marks = Measure(kWatchdogIters, [&] {
    watchdog.MarkBatchStart(now);
    Sink(watchdog.Wedged(std::chrono::milliseconds(2000), now));
    watchdog.MarkBatchEnd();
  });

  // 6. Overload control, once per request and once per batch: a warm
  //    admission verdict that judges a deadline, its slot's release, and
  //    one batch-execution sample (the estimator re-takes its median).
  serving::OverloadControl overload(serving::OverloadOptions(),
                                    /*max_batch=*/8);
  for (int i = 0; i < 128; ++i) {  // fill the window past min_samples
    overload.service_estimator().Record(0.005);
  }
  Measurement admission_warm = Measure(kAdmissionIters, [&] {
    const serving::Clock::time_point at = serving::Clock::now();
    g_sink = static_cast<long long>(overload.admission().Admit(
        at, at + std::chrono::seconds(1), overload.service_estimator().P50()));
    overload.admission().OnTerminal();
    overload.service_estimator().Record(0.005);
  });

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"resilience\",\n"
      "  \"failpoint_disarmed\": {\"ns_per_op\": %.2f, \"allocs\": %lld},\n"
      "  \"streaming_sites_disarmed_x5\": {\"ns_per_op\": %.2f, \"allocs\": "
      "%lld},\n"
      "  \"failpoint_armed_elsewhere\": {\"ns_per_op\": %.2f, \"allocs\": "
      "%lld},\n"
      "  \"breaker_closed\": {\"ns_per_op\": %.2f, \"allocs\": %lld},\n"
      "  \"sanitize_clean_12x32x3\": {\"ns_per_op\": %.2f, \"allocs\": "
      "%lld},\n"
      "  \"watchdog_marks\": {\"ns_per_op\": %.2f, \"allocs\": %lld},\n"
      "  \"admission_warm\": {\"ns_per_op\": %.2f, \"allocs\": %lld}\n"
      "}\n",
      fp_disarmed.ns_per_op, fp_disarmed.allocs, fp_streaming.ns_per_op,
      fp_streaming.allocs, fp_armed_other.ns_per_op,
      fp_armed_other.allocs, breaker_closed.ns_per_op, breaker_closed.allocs,
      sanitize_clean.ns_per_op, sanitize_clean.allocs,
      watchdog_marks.ns_per_op, watchdog_marks.allocs,
      admission_warm.ns_per_op, admission_warm.allocs);
  std::fputs(buf, stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << buf;
  }

  bool failed = false;
  auto gate_allocs = [&](const char* name, const Measurement& m) {
    if (m.allocs != 0) {
      std::fprintf(stderr, "FAIL: %s heap-allocated %lld times (want 0)\n",
                   name, m.allocs);
      failed = true;
    }
  };
  gate_allocs("disarmed failpoint", fp_disarmed);
  gate_allocs("disarmed streaming sites", fp_streaming);
  gate_allocs("closed breaker hot path", breaker_closed);
  gate_allocs("clean sanitizer scan", sanitize_clean);
  gate_allocs("watchdog marks", watchdog_marks);
  gate_allocs("warm admission verdict + estimator record", admission_warm);
  // Branch-cheap means low double-digit ns even on a throttled CI core;
  // 200ns would mean the guard grew a lock or an allocation.
  if (fp_disarmed.ns_per_op > 200.0) {
    std::fprintf(stderr, "FAIL: disarmed failpoint costs %.1fns (gate 200)\n",
                 fp_disarmed.ns_per_op);
    failed = true;
  }
  // Five probes per op, so five times the single-probe gate.
  if (fp_streaming.ns_per_op > 1000.0) {
    std::fprintf(stderr,
                 "FAIL: disarmed streaming sites cost %.1fns per 5 probes "
                 "(gate 1000)\n",
                 fp_streaming.ns_per_op);
    failed = true;
  }
  // The breaker holds a mutex briefly; anything near microseconds is a bug.
  if (breaker_closed.ns_per_op > 5000.0) {
    std::fprintf(stderr, "FAIL: closed breaker costs %.1fns (gate 5000)\n",
                 breaker_closed.ns_per_op);
    failed = true;
  }
  return failed ? 1 : 0;
}
