#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/check.h"
#include "core/memory_tracker.h"
#include "stats.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"

namespace perfbench {

namespace serving = ::sstban::serving;
namespace t = ::sstban::tensor;
using ::sstban::core::StatusCode;

namespace {

constexpr int kWarmupRounds = 5;
constexpr int64_t kRecomputeAnswers = 8;
// A served answer must equal the direct single-window forecast to within
// kRecomputeAbsTol + kRecomputeRelTol * |direct| per element (flows are in
// vehicles per slice, typically 10 to 1000).
constexpr double kRecomputeAbsTol = 1e-3;
constexpr double kRecomputeRelTol = 1e-4;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

serving::ServerOptions GeometryOnly(const World& world) {
  serving::ServerOptions options;
  options.input_len = world.config.input_len;
  options.output_len = world.config.output_len;
  options.steps_per_day = world.config.steps_per_day;
  options.num_nodes = world.config.num_nodes;
  options.num_features = world.config.num_features;
  return options;
}

serving::ForecastRequest MakeRequest(const ServingEnv& env, int64_t i,
                                     Clock::time_point deadline) {
  serving::ForecastRequest request;
  request.recent = env.windows[i];
  request.first_step = env.schedule[i].window_start;
  request.deadline = deadline;
  return request;
}

// Empty when `response` is a correct answer: the primary model's undegraded,
// all-finite [Q, N, C] forecast.
std::string CheckAnswer(const World& world,
                        const serving::ForecastResponse& response) {
  if (response.served_by != serving::ServedBy::kModel) {
    return std::string("served by ") +
           serving::ServedByName(response.served_by);
  }
  if (response.degradation != serving::DegradationLevel::kNone) {
    return std::string("degraded: ") +
           serving::DegradationLevelName(response.degradation);
  }
  const t::Shape want{world.config.output_len, world.config.num_nodes,
                      world.config.num_features};
  if (!(response.forecast.shape() == want)) {
    return "shape " + response.forecast.shape().ToString() + ", want " +
           want.ToString();
  }
  if (t::HasNonFinite(response.forecast)) return "non-finite forecast";
  return "";
}

// Server-side means and counts over one phase, from two ServerStats
// snapshots. Only means and counts are read: the histogram quantiles are
// bucketed.
double StageMeanMs(const serving::ServerStats::StageSummary& before,
                   const serving::ServerStats::StageSummary& after) {
  const int64_t n = after.count - before.count;
  if (n <= 0) return 0.0;
  return (after.mean * after.count - before.mean * before.count) / n * 1e3;
}

double BatchSizeMean(const serving::ServerStats::Snapshot& before,
                     const serving::ServerStats::Snapshot& after) {
  auto totals = [](const serving::ServerStats::Snapshot& s) {
    std::pair<int64_t, int64_t> requests_batches{0, 0};
    for (auto [size, count] : s.batch_sizes) {
      requests_batches.first += size * count;
      requests_batches.second += count;
    }
    return requests_batches;
  };
  auto [r0, b0] = totals(before);
  auto [r1, b1] = totals(after);
  return b1 > b0 ? static_cast<double>(r1 - r0) / static_cast<double>(b1 - b0)
                 : 0.0;
}

struct InFlight {
  int64_t index = -1;  // -1: no more requests
  serving::ForecastFuture future;
  Clock::time_point submit_start, submit_end;
};

}  // namespace

std::unique_ptr<ServingEnv> SetUpServing(const World& world,
                                         const ArrivalPlan& plan,
                                         double seconds, uint64_t seed) {
  auto env = std::make_unique<ServingEnv>();
  env->world = world;
  env->plan = plan;
  const auto& config = world.config;
  env->registry = std::make_unique<serving::ModelRegistry>(
      [config] {
        return std::make_unique<sstban::sstban::SstbanModel>(config);
      },
      world.normalizer);
  env->registry->Install(std::make_unique<sstban::sstban::SstbanModel>(config));
  env->server = std::make_unique<serving::ForecastServer>(GeometryOnly(world),
                                                          env->registry.get());
  const auto started = env->server->Start();
  SSTBAN_CHECK(started.ok()) << started.ToString();

  env->schedule = BuildSchedule(plan, seconds, world.num_windows(), seed);
  SSTBAN_CHECK(!env->schedule.empty()) << "phase shorter than one period";
  env->windows.reserve(env->schedule.size());
  for (const Arrival& a : env->schedule) {
    env->windows.push_back(t::Slice(world.dataset->signals, 0, a.window_start,
                                    config.input_len)
                               .Clone());
  }
  env->recompute = RecomputeSample(static_cast<int64_t>(env->schedule.size()),
                                   kRecomputeAnswers, seed);

  // Warm-up: the first forwards at the workload's batch size fill the
  // storage pool and start the kernel thread pool before anything is timed.
  const int64_t per_round =
      std::min<int64_t>(plan.burst_size, env->server->options().max_batch);
  for (int round = 0; round < kWarmupRounds; ++round) {
    std::vector<serving::ForecastFuture> futures;
    for (int64_t j = 0; j < per_round; ++j) {
      auto submitted = env->server->Submit(MakeRequest(
          *env, j % static_cast<int64_t>(env->schedule.size()),
          Clock::now() + std::chrono::seconds(30)));
      SSTBAN_CHECK(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(submitted).value());
    }
    for (auto& f : futures) {
      auto result = f.get();
      SSTBAN_CHECK(result.ok()) << result.status().ToString();
    }
  }
  return env;
}

PhaseResult RunServingPhase(ServingEnv& env, Tracer* tracer) {
  serving::ForecastServer& server = *env.server;
  const World& world = env.world;
  const auto& schedule = env.schedule;
  const auto n = static_cast<int64_t>(schedule.size());

  PhaseResult r;
  r.attempted = n;
  const double limit_ms = Ms(env.plan.deadline);
  r.latency_ms.assign(n, limit_ms);
  std::vector<int64_t> request_span(n, -1);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;  // guarded by mu

  // Written by the completion thread only; read after it is joined.
  int64_t succeeded = 0, late = 0, wrong = 0;
  double client_ms_sum = 0.0;
  std::vector<std::string> completion_errors;
  std::map<int64_t, t::Tensor> sampled;
  const std::vector<int64_t>& recompute = env.recompute;

  const auto stats_before = server.stats().TakeSnapshot();
  const auto& memory = sstban::core::MemoryTracker::Global();
  const int64_t hits0 = memory.pool_hits(), misses0 = memory.pool_misses(),
                heap0 = memory.heap_allocs();
  ResetPeakRss();
  const ProcessUsage usage0 = ReadProcessUsage();
  const HostCpu host0 = ReadHostCpu();
  const auto start = Clock::now() + std::chrono::milliseconds(2);

  std::thread completer([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !in_flight.empty(); });
        f = std::move(in_flight.front());
        in_flight.pop_front();
      }
      if (f.index < 0) return;
      serving::ForecastResult result = f.future.get();
      const auto done = Clock::now();
      const int64_t i = f.index;
      const auto due = start + schedule[i].due;
      bool correct = false;
      if (!result.ok()) {
        const StatusCode code = result.status().code();
        if (code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kUnavailable) {
          ++late;  // expired or shed while queued
        } else {
          ++wrong;
          completion_errors.push_back("request " + std::to_string(i) + ": " +
                                      result.status().ToString());
        }
      } else if (std::string why = CheckAnswer(world, result.value());
                 !why.empty()) {
        ++wrong;
        completion_errors.push_back("request " + std::to_string(i) + ": " +
                                    why);
      } else if (done > due + env.plan.deadline) {
        ++late;
      } else {
        correct = true;
        ++succeeded;
        client_ms_sum += Ms(done - f.submit_start);
        if (std::binary_search(recompute.begin(), recompute.end(), i)) {
          sampled[i] = result.value().forecast;
        }
      }
      r.latency_ms[i] = RecordedLatency(correct, Ms(done - due), limit_ms);
      if (tracer != nullptr) {
        tracer->Record("client.await", f.submit_end, done, request_span[i], i);
        tracer->Write(request_span[i], "client.request", due, done, -1, i);
      }
    }
  });

  // Ends the completion thread once everything sent has been answered; runs
  // on the way out of the sender loop, normally or by exception.
  auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      in_flight.push_back(InFlight{});
    }
    cv.notify_one();
    completer.join();
  };

  // The sender: this thread, on schedule. A refused request is a miss.
  int64_t refused = 0, invalid = 0;
  double submit_ms_sum = 0.0;
  std::vector<std::string> submit_errors;
  try {
    for (int64_t i = 0; i < n; ++i) {
      const auto due = start + schedule[i].due;
      std::this_thread::sleep_until(due);
      r.send_lag_ms.push_back(Ms(Clock::now() - due));
      if (tracer != nullptr) request_span[i] = tracer->Reserve();
      const auto t0 = Clock::now();
      auto submitted =
          server.Submit(MakeRequest(env, i, due + env.plan.deadline));
      const auto t1 = Clock::now();
      submit_ms_sum += Ms(t1 - t0);
      if (tracer != nullptr) {
        tracer->Record("client.submit", t0, t1, request_span[i], i);
      }
      if (submitted.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu);
          in_flight.push_back({i, std::move(submitted).value(), t0, t1});
        }
        cv.notify_one();
        continue;
      }
      const StatusCode code = submitted.status().code();
      if (code == StatusCode::kUnavailable ||
          code == StatusCode::kDeadlineExceeded) {
        ++refused;
      } else {
        ++invalid;
        submit_errors.push_back("request " + std::to_string(i) + ": " +
                                submitted.status().ToString());
      }
      r.latency_ms[i] = RecordedLatency(false, Ms(t1 - due), limit_ms);
      if (tracer != nullptr) {
        tracer->Write(request_span[i], "client.request", due, t1, -1, i);
      }
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();

  const auto end = Clock::now();
  const ProcessUsage usage1 = ReadProcessUsage();
  r.peak_rss_mb = PeakRssMb();
  r.steal_share = StealShare(host0, ReadHostCpu());
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.usage = {usage1.user_s - usage0.user_s, usage1.sys_s - usage0.sys_s,
             usage1.minor_faults - usage0.minor_faults};
  r.pool_hits = memory.pool_hits() - hits0;
  r.pool_misses = memory.pool_misses() - misses0;
  r.heap_allocs = memory.heap_allocs() - heap0;
  r.succeeded = succeeded;
  r.ops = succeeded;
  r.refused = refused;
  r.late = late;
  r.incorrect = wrong + invalid;
  r.errors = submit_errors;
  r.errors.insert(r.errors.end(), completion_errors.begin(),
                  completion_errors.end());

  const auto stats_after = server.stats().TakeSnapshot();
  const double server_e2e_ms =
      StageMeanMs(stats_before.end_to_end, stats_after.end_to_end);
  const double queue_ms =
      StageMeanMs(stats_before.queue_wait, stats_after.queue_wait);
  const double assembly_ms =
      StageMeanMs(stats_before.assembly, stats_after.assembly);
  const double forward_ms =
      StageMeanMs(stats_before.forward, stats_after.forward);
  Metrics& layer = r.layer;
  layer["serving.submit_us"] = submit_ms_sum * 1e3 / static_cast<double>(n);
  layer["serving.queue_wait_ms"] = queue_ms;
  layer["serving.assembly_ms"] = assembly_ms;
  layer["serving.forward_ms"] = forward_ms;
  layer["serving.batch_overhead_ms"] =
      server_e2e_ms - queue_ms - assembly_ms - forward_ms;
  layer["serving.client_gap_ms"] =
      succeeded > 0 ? client_ms_sum / succeeded - server_e2e_ms : 0.0;
  layer["serving.batch_size_mean"] = BatchSizeMean(stats_before, stats_after);
  layer["serving.admitted_share"] =
      static_cast<double>(stats_after.accepted - stats_before.accepted) /
      static_cast<double>(n);
  layer["serving.shed_admission"] = static_cast<double>(
      stats_after.shed_admission - stats_before.shed_admission);
  layer["serving.rejected_predicted_late"] =
      static_cast<double>(stats_after.rejected_predicted_late -
                          stats_before.rejected_predicted_late);
  layer["serving.swept_predicted_late"] =
      static_cast<double>(stats_after.swept_predicted_late -
                          stats_before.swept_predicted_late);
  layer["serving.admission_limit"] = server.overload().admission().limit();

  // Recompute the sampled answers with a direct single-window forward on an
  // identically seeded model (the served one belongs to the batcher).
  sstban::sstban::SstbanModel reference(world.config);
  const auto& config = world.config;
  double max_excess = 0.0;
  for (const auto& [i, served] : sampled) {
    sstban::data::Batch batch;
    batch.x = env.windows[i].Reshape(t::Shape{1, config.input_len,
                                              config.num_nodes,
                                              config.num_features});
    batch.y = t::Tensor::Zeros(t::Shape{1, config.output_len, config.num_nodes,
                                        config.num_features});
    sstban::training::AppendCalendarFeatures(
        schedule[i].window_start, config.input_len, config.output_len,
        config.steps_per_day, &batch);
    const t::Tensor direct = sstban::training::RunBatchedInference(
        &reference, world.normalizer, batch);
    const float* want = direct.data();
    const float* got = served.data();
    double worst = 0.0;
    for (int64_t k = 0; k < served.size(); ++k) {
      const double allowed =
          kRecomputeAbsTol + kRecomputeRelTol * std::fabs(want[k]);
      worst = std::max(worst, std::fabs(got[k] - want[k]) / allowed);
    }
    max_excess = std::max(max_excess, worst);
    if (!(worst <= 1.0)) {
      ++r.incorrect;
      r.errors.push_back("request " + std::to_string(i) +
                         ": differs from the direct forward");
    }
  }
  if (sampled.empty()) {
    ++r.incorrect;
    r.errors.push_back("no sampled answer succeeded, so none was recomputed");
  }
  layer["check.recomputed"] = static_cast<double>(sampled.size());
  layer["check.recompute_worst_vs_tolerance"] = max_excess;
  return r;
}

}  // namespace perfbench
