// Overload-control bench: goodput and accepted-request p99 versus offered
// load, with admission control ON vs OFF (ABBA arm order per rate, so drift
// on the host cancels instead of biasing one arm).
//
// Method: a `serve_batch_run=delay(...)` failpoint gives every batch a
// deterministic service-time floor, so "capacity" is a property of the
// configuration, not of host noise. Capacity is measured closed-loop; then
// an open-loop Poisson arrival process (latency charged from the *scheduled*
// arrival — no coordinated omission) sweeps {0.5, 1, 2, 3, 5, 8} x capacity.
// Every request carries a deadline; goodput counts only answers delivered
// within it.
//
// The headline rows this bench exists to document, each gated:
//   - admission ON at 5x capacity: goodput >= 80% of capacity and accepted
//     p99 <= 3x the uncontended (0.5x) p99 — shedding keeps the server
//     inside its latency budget while serving near its limit;
//   - admission ON at 1x capacity: goodput >= 0.9x the OFF arm's (each the
//     mean of its two runs) with at most 5% of submitted requests refused —
//     at capacity the queue drains in time, so the rule must not read
//     ordinary queueing as overload;
//   - admission OFF at 5x: the queue fills, every request ages into its
//     deadline, goodput collapses — the failure mode the rule removes
//     (reported, not gated).
//
// Emits one JSON object on stdout; pass a path as argv[1] to also write it
// there (CI snapshots it as bench/BENCH_overload.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/failpoint.h"
#include "core/string_util.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"

namespace {

namespace t = ::sstban::tensor;
namespace data = ::sstban::data;
namespace serving = ::sstban::serving;
namespace core = ::sstban::core;
namespace model_ns = ::sstban::sstban;
using serving::Clock;

constexpr int64_t kSteps = 12;
constexpr int64_t kNodes = 8;
constexpr int64_t kFeatures = 1;
constexpr int64_t kStepsPerDay = 24;
constexpr int64_t kMaxBatch = 4;
constexpr int kBatchDelayMs = 8;  // deterministic service-time floor
constexpr auto kDeadline = std::chrono::milliseconds(150);

struct World {
  std::shared_ptr<data::TrafficDataset> dataset;
  data::Normalizer normalizer;
  model_ns::SstbanConfig config;
  std::vector<t::Tensor> windows;
};

World BuildWorld() {
  World world;
  data::SyntheticWorldConfig world_config;
  world_config.num_nodes = kNodes;
  world_config.num_corridors = 2;
  world_config.steps_per_day = kStepsPerDay;
  world_config.num_days = 4;
  world_config.seed = 17;
  world.dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(world_config));
  world.normalizer = data::Normalizer::Fit(world.dataset->signals);

  world.config.num_nodes = kNodes;
  world.config.input_len = kSteps;
  world.config.output_len = kSteps;
  world.config.num_features = kFeatures;
  world.config.steps_per_day = kStepsPerDay;
  world.config.hidden_dim = 8;
  world.config.num_heads = 2;
  world.config.encoder_blocks = 1;
  world.config.decoder_blocks = 1;
  world.config.patch_len = 4;
  world.config.seed = 9;

  for (int64_t i = 0; i < 32; ++i) {
    const int64_t start = (i * 37) % (world.dataset->num_steps() - 2 * kSteps);
    world.windows.push_back(
        t::Slice(world.dataset->signals, 0, start, kSteps).Clone());
  }
  return world;
}

serving::ServerOptions MakeServerOptions(bool admission) {
  serving::ServerOptions options;
  options.input_len = kSteps;
  options.output_len = kSteps;
  options.steps_per_day = kStepsPerDay;
  options.num_nodes = kNodes;
  options.num_features = kFeatures;
  options.max_batch = kMaxBatch;
  options.max_wait = std::chrono::milliseconds(1);
  options.queue_capacity = 512;  // big enough that ONLY admission sheds
  options.overload.enabled = admission;
  return options;
}

struct RunReport {
  double offered_rps = 0.0;
  double duration_seconds = 0.0;
  int64_t submitted = 0;
  int64_t accepted = 0;  // Submit returned a future
  int64_t shed = 0;      // Submit refused synchronously
  int64_t good = 0;      // Ok answer delivered within the deadline
  int64_t late_or_failed = 0;
  double goodput_rps = 0.0;
  double accepted_p50 = 0.0, accepted_p99 = 0.0;  // seconds, from arrival

  std::string ToJson(const char* arm) const {
    return core::StrFormat(
        "{\"arm\": \"%s\", \"offered_rps\": %.1f, \"duration_seconds\": %.3f, "
        "\"submitted\": %lld, \"accepted\": %lld, \"shed\": %lld, "
        "\"good\": %lld, \"late_or_failed\": %lld, \"goodput_rps\": %.1f, "
        "\"accepted_p50_ms\": %.2f, \"accepted_p99_ms\": %.2f}",
        arm, offered_rps, duration_seconds, static_cast<long long>(submitted),
        static_cast<long long>(accepted), static_cast<long long>(shed),
        static_cast<long long>(good), static_cast<long long>(late_or_failed),
        goodput_rps, accepted_p50 * 1e3, accepted_p99 * 1e3);
  }
};

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(q * (values->size() - 1));
  std::nth_element(values->begin(), values->begin() + idx, values->end());
  return (*values)[idx];
}

// Closed loop at fixed concurrency: the sustainable completion rate IS the
// capacity under the configured service-time floor.
double MeasureCapacity(const World& world) {
  serving::ModelRegistry registry(
      [&world] { return std::make_unique<model_ns::SstbanModel>(world.config); },
      world.normalizer);
  registry.Install(std::make_unique<model_ns::SstbanModel>(world.config));
  serving::ForecastServer server(MakeServerOptions(/*admission=*/true),
                                 &registry);
  if (!server.Start().ok()) return 0.0;

  constexpr int kConcurrency = 8;
  constexpr int kRounds = 40;
  const auto start = Clock::now();
  int64_t completed = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<serving::ForecastFuture> futures;
    for (int i = 0; i < kConcurrency; ++i) {
      serving::ForecastRequest request;
      request.recent = world.windows[(round * kConcurrency + i) %
                                     world.windows.size()];
      request.first_step = 0;
      auto submitted = server.Submit(std::move(request));
      if (submitted.ok()) futures.push_back(std::move(submitted).value());
    }
    for (auto& future : futures) {
      if (future.get().ok()) ++completed;
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.Shutdown();
  return seconds > 0.0 ? completed / seconds : 0.0;
}

// One open-loop arm: Poisson arrivals at `rate_rps`, every request with a
// deadline, latencies charged from the scheduled arrival instant.
RunReport RunOpenLoopArm(const World& world, bool admission, double rate_rps,
                         int64_t requests, uint64_t seed) {
  serving::ModelRegistry registry(
      [&world] { return std::make_unique<model_ns::SstbanModel>(world.config); },
      world.normalizer);
  registry.Install(std::make_unique<model_ns::SstbanModel>(world.config));
  serving::ForecastServer server(MakeServerOptions(admission), &registry);
  RunReport report;
  report.offered_rps = rate_rps;
  if (!server.Start().ok()) return report;

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_rps);
  std::vector<double> offsets(requests);
  double at = 0.0;
  for (int64_t i = 0; i < requests; ++i) {
    at += gap(rng);
    offsets[static_cast<size_t>(i)] = at;
  }

  std::mutex lat_mutex;
  std::vector<double> latencies;  // accepted requests only
  std::atomic<int64_t> good{0}, late_or_failed{0};

  struct InFlight {
    serving::ForecastFuture future;
    Clock::time_point scheduled;
  };
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<InFlight> in_flight;
  std::atomic<bool> done{false};

  std::vector<std::thread> drains;
  for (int d = 0; d < 8; ++d) {
    drains.emplace_back([&] {
      for (;;) {
        InFlight item;
        {
          std::unique_lock<std::mutex> lock(queue_mutex);
          queue_cv.wait(lock,
                        [&] { return !in_flight.empty() || done.load(); });
          if (in_flight.empty()) return;
          item = std::move(in_flight.front());
          in_flight.pop_front();
        }
        serving::ForecastResult result = item.future.get();
        const double latency =
            std::chrono::duration<double>(Clock::now() - item.scheduled)
                .count();
        {
          std::unique_lock<std::mutex> lock(lat_mutex);
          latencies.push_back(latency);
        }
        const bool within =
            latency <= std::chrono::duration<double>(kDeadline).count();
        if (result.ok() && within) {
          good.fetch_add(1);
        } else {
          late_or_failed.fetch_add(1);
        }
      }
    });
  }

  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < requests; ++i) {
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[static_cast<size_t>(i)]));
    std::this_thread::sleep_until(scheduled);
    serving::ForecastRequest request;
    request.recent = world.windows[static_cast<size_t>(i) % world.windows.size()];
    request.first_step = 0;
    request.deadline = scheduled + kDeadline;
    ++report.submitted;
    auto submitted = server.Submit(std::move(request));
    if (!submitted.ok()) {
      ++report.shed;
      continue;
    }
    ++report.accepted;
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      in_flight.push_back({std::move(submitted).value(), scheduled});
    }
    queue_cv.notify_one();
  }
  // Drain: wait for every accepted future, then stop the workers.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      if (in_flight.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  queue_cv.notify_all();
  for (std::thread& drain : drains) drain.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.Shutdown();

  report.duration_seconds = seconds;
  report.good = good.load();
  report.late_or_failed = late_or_failed.load();
  report.goodput_rps = seconds > 0.0 ? report.good / seconds : 0.0;
  report.accepted_p50 = Quantile(&latencies, 0.50);
  report.accepted_p99 = Quantile(&latencies, 0.99);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  // The deterministic service-time floor: every batch takes >= kBatchDelayMs,
  // so capacity and the overload multiples mean the same thing on any host.
  SSTBAN_CHECK(core::FailPoint::SetFromList(
                   core::StrFormat("serve_batch_run=delay(%d)", kBatchDelayMs))
                   .ok());

  World world = BuildWorld();
  const double capacity = MeasureCapacity(world);
  std::fprintf(stderr, "capacity (closed loop): %.1f rps\n", capacity);
  if (capacity <= 0.0) {
    std::fprintf(stderr, "FAIL: capacity measurement\n");
    return 1;
  }

  const std::vector<double> multiples = {0.5, 1.0, 2.0, 3.0, 5.0, 8.0};
  std::string sweeps;
  double uncontended_p99 = 0.0;
  double goodput_on_5x = 0.0, p99_on_5x = 0.0;
  double goodput_off_5x = 0.0, p99_off_5x = 0.0;
  double goodput_on_1x = 0.0, goodput_off_1x = 0.0, shed_on_1x = 0.0;
  for (size_t m = 0; m < multiples.size(); ++m) {
    const double rate = multiples[m] * capacity;
    const int64_t requests = std::max<int64_t>(
        200, static_cast<int64_t>(rate * 2.0));  // >= ~2s per arm
    // ABBA: on, off, off, on — host drift hits both arms symmetrically.
    const bool arm_order[4] = {true, false, false, true};
    std::vector<double> on_p99s, off_p99s, on_good, off_good;
    int64_t on_submitted = 0, on_shed = 0;
    for (int a = 0; a < 4; ++a) {
      const bool admission = arm_order[a];
      RunReport r = RunOpenLoopArm(world, admission, rate, requests,
                                   /*seed=*/101 + 17 * m + a);
      std::fprintf(stderr,
                   "%4.1fx (%6.1f rps) admission=%-3s goodput %6.1f rps  "
                   "shed %5lld  p99 %7.2fms\n",
                   multiples[m], rate, admission ? "on" : "off", r.goodput_rps,
                   static_cast<long long>(r.shed), r.accepted_p99 * 1e3);
      if (!sweeps.empty()) sweeps += ",\n    ";
      sweeps += r.ToJson(admission ? "on" : "off");
      (admission ? on_p99s : off_p99s).push_back(r.accepted_p99);
      (admission ? on_good : off_good).push_back(r.goodput_rps);
      if (admission) {
        on_submitted += r.submitted;
        on_shed += r.shed;
      }
    }
    auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (double x : v) sum += x;
      return v.empty() ? 0.0 : sum / v.size();
    };
    if (multiples[m] == 0.5) uncontended_p99 = mean(on_p99s);
    if (multiples[m] == 1.0) {
      goodput_on_1x = mean(on_good);
      goodput_off_1x = mean(off_good);
      shed_on_1x = on_submitted > 0 ? static_cast<double>(on_shed) /
                                          static_cast<double>(on_submitted)
                                    : 0.0;
    }
    if (multiples[m] == 5.0) {
      goodput_on_5x = mean(on_good);
      p99_on_5x = mean(on_p99s);
      goodput_off_5x = mean(off_good);
      p99_off_5x = mean(off_p99s);
    }
  }
  sstban::core::FailPoint::ClearAll();

  const bool goodput_gate = goodput_on_5x >= 0.8 * capacity;
  const bool p99_gate =
      uncontended_p99 > 0.0 && p99_on_5x <= 3.0 * uncontended_p99;
  const bool goodput_1x_gate = goodput_on_1x >= 0.9 * goodput_off_1x;
  const bool shed_1x_gate = shed_on_1x <= 0.05;
  std::string json = core::StrFormat(
      "{\n  \"bench\": \"overload\",\n"
      "  \"batch_delay_ms\": %d,\n  \"deadline_ms\": %lld,\n"
      "  \"capacity_rps\": %.1f,\n  \"uncontended_p99_ms\": %.2f,\n"
      "  \"at_1x\": {\"goodput_on_rps\": %.1f, \"goodput_off_rps\": %.1f, "
      "\"shed_on_share\": %.4f},\n"
      "  \"at_5x\": {\"goodput_on_rps\": %.1f, \"p99_on_ms\": %.2f, "
      "\"goodput_off_rps\": %.1f, \"p99_off_ms\": %.2f},\n"
      "  \"gates\": {\"goodput_on_5x_ge_80pct_capacity\": %s, "
      "\"p99_on_5x_le_3x_uncontended\": %s, "
      "\"goodput_on_1x_ge_90pct_off\": %s, \"shed_on_1x_le_5pct\": %s},\n"
      "  \"sweeps\": [\n    ",
      kBatchDelayMs, static_cast<long long>(kDeadline.count()), capacity,
      uncontended_p99 * 1e3, goodput_on_1x, goodput_off_1x, shed_on_1x,
      goodput_on_5x, p99_on_5x * 1e3, goodput_off_5x, p99_off_5x * 1e3,
      goodput_gate ? "true" : "false", p99_gate ? "true" : "false",
      goodput_1x_gate ? "true" : "false", shed_1x_gate ? "true" : "false");
  json += sweeps;
  json += "\n  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << json;
  }

  if (!goodput_gate || !p99_gate || !goodput_1x_gate || !shed_1x_gate) {
    std::fprintf(stderr,
                 "FAIL: gates: goodput_on_5x=%.1f (need >= %.1f), "
                 "p99_on_5x=%.2fms (need <= %.2fms), goodput_on_1x=%.1f "
                 "(need >= %.1f), shed_on_1x=%.2f%% (need <= 5%%)\n",
                 goodput_on_5x, 0.8 * capacity, p99_on_5x * 1e3,
                 3.0 * uncontended_p99 * 1e3, goodput_on_1x,
                 0.9 * goodput_off_1x, shed_on_1x * 100.0);
    return 1;
  }
  return 0;
}
