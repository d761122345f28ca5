// Tests for the serving resilience layer: input sanitization and mask-aware
// degraded inference, the circuit-breaker state machine, the
// SSTBAN -> VAR -> last-known-good fallback chain, watchdog/health probes,
// and the chaos invariant — under every fault schedule, every request
// reaches exactly one terminal status and the server never aborts or
// wedges. The CI chaos matrix additionally runs this whole binary under
// several SSTBAN_FAILPOINTS environment schedules.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/var_model.h"
#include "core/check.h"
#include "core/failpoint.h"
#include "core/rng.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "serving/circuit_breaker.h"
#include "serving/fallback.h"
#include "serving/forecast_server.h"
#include "serving/health.h"
#include "serving/model_registry.h"
#include "serving/sanitizer.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"

namespace sstban::serving {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

constexpr int64_t kSteps = 6;
constexpr int64_t kNodes = 4;
constexpr int64_t kFeatures = 1;
constexpr int64_t kStepsPerDay = 12;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::shared_ptr<data::TrafficDataset> TinyWorld() {
  data::SyntheticWorldConfig config;
  config.num_nodes = kNodes;
  config.num_corridors = 2;
  config.steps_per_day = kStepsPerDay;
  config.num_days = 6;
  config.seed = 77;
  return std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(config));
}

model_ns::SstbanConfig TinyConfig(uint64_t seed = 5) {
  model_ns::SstbanConfig config;
  config.num_nodes = kNodes;
  config.input_len = kSteps;
  config.output_len = kSteps;
  config.num_features = kFeatures;
  config.steps_per_day = kStepsPerDay;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  config.seed = seed;
  return config;
}

ServerOptions TinyServerOptions() {
  ServerOptions options;
  options.input_len = kSteps;
  options.output_len = kSteps;
  options.steps_per_day = kStepsPerDay;
  options.num_nodes = kNodes;
  options.num_features = kFeatures;
  options.max_batch = 4;
  options.max_wait = std::chrono::milliseconds(5);
  options.queue_capacity = 64;
  options.sanitizer.degradable_channels = {0};
  return options;
}

// Arms a comma-separated failpoint schedule for the test's scope and
// guarantees nothing stays armed afterwards (failpoints are process-global).
struct ScopedFailpoints {
  explicit ScopedFailpoints(const std::string& list) {
    if (!list.empty()) {
      SSTBAN_CHECK(core::FailPoint::SetFromList(list).ok()) << list;
    }
  }
  ~ScopedFailpoints() { core::FailPoint::ClearAll(); }
};

std::unique_ptr<baselines::VarModel> FittedVar(
    const data::TrafficDataset& dataset, const data::Normalizer& norm) {
  auto var = std::make_unique<baselines::VarModel>(3);
  var->FitSeries(norm.Transform(dataset.signals));
  return var;
}

// A model whose forward pass always throws — the "model crashed" chaos case
// the batcher must absorb (std::exception, not process death).
class ThrowingModel : public training::TrafficModel {
 public:
  ag::Variable Predict(const t::Tensor&, const data::Batch&) override {
    throw std::runtime_error("synthetic model crash");
  }
  std::string name() const override { return "Throwing"; }
};

// A model whose forward pass blocks until released (for wedge testing).
class GateModel : public training::TrafficModel {
 public:
  ag::Variable Predict(const t::Tensor& x_norm,
                       const data::Batch& batch) override {
    (void)batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    return ag::Variable(t::Tensor::Zeros(
        t::Shape{x_norm.dim(0), kSteps, x_norm.dim(2), x_norm.dim(3)}));
  }
  std::string name() const override { return "Gate"; }
  void WaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this, count] { return entered_ >= count; });
  }
  void Release() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_, release_cv_;
  int entered_ = 0;
  bool released_ = false;
};

// -- InputSanitizer ----------------------------------------------------------

TEST(SanitizerTest, CleanWindowIsUntouchedAndUnmasked) {
  t::Tensor window = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  const float* before = window.data();
  InputSanitizer sanitizer(SanitizerOptions{});
  auto result = sanitizer.Sanitize(&window);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().clean());
  EXPECT_FALSE(result.value().keep_pos.defined());
  EXPECT_EQ(window.data(), before);  // no clone on the clean hot path
}

TEST(SanitizerTest, StrictChannelNaNIsRejectedWithLocation) {
  t::Tensor window = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  window.data()[(2 * kNodes + 1) * kFeatures] = kNaN;
  InputSanitizer sanitizer(SanitizerOptions{});  // strict everywhere
  auto result = sanitizer.Sanitize(&window);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("step 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("sensor 1"), std::string::npos);
}

TEST(SanitizerTest, DegradableNaNIsMaskedScrubbedAndClientBufferPreserved) {
  t::Tensor client = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  client.data()[(3 * kNodes + 2) * kFeatures] = kNaN;
  t::Tensor window = client;  // shares storage, like Submit's by-value copy

  SanitizerOptions options;
  options.degradable_channels = {0};
  InputSanitizer sanitizer(options);
  auto result = sanitizer.Sanitize(&window);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().masked_positions, 1);
  EXPECT_EQ(result.value().total_positions, kSteps * kNodes);
  ASSERT_TRUE(result.value().keep_pos.defined());
  EXPECT_EQ(result.value().keep_pos.dim(0), kSteps);
  EXPECT_EQ(result.value().keep_pos.dim(1), kNodes);
  EXPECT_EQ(result.value().keep_pos.data()[3 * kNodes + 2], 0.0f);
  // The request's window was re-pointed at a scrubbed clone...
  EXPECT_NE(window.data(), client.data());
  EXPECT_EQ(window.data()[(3 * kNodes + 2) * kFeatures], 0.0f);
  EXPECT_FALSE(t::HasNonFinite(window));
  // ...while the client's buffer still holds the NaN it sent.
  EXPECT_TRUE(std::isnan(client.data()[(3 * kNodes + 2) * kFeatures]));
}

TEST(SanitizerTest, FullyMaskedWindowIsRejected) {
  t::Tensor window = t::Tensor::Full(t::Shape{kSteps, kNodes, kFeatures}, kNaN);
  SanitizerOptions options;
  options.degradable_channels = {0};
  auto result = InputSanitizer(options).Sanitize(&window);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
}

// -- CircuitBreaker (fake clock: no sleeping, fully deterministic) -----------

struct FakeClock {
  Clock::time_point now = Clock::now();
  CircuitBreaker::NowFn fn() {
    return [this] { return now; };
  }
  void Advance(std::chrono::milliseconds d) { now += d; }
};

// Records kMinSamples failures: the fewest outcomes that can open a closed
// breaker.
void Trip(CircuitBreaker& breaker) {
  for (int64_t i = 0; i < CircuitBreaker::kMinSamples; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, TripsOnErrorRateAndShedsLoad) {
  FakeClock clock;
  CircuitBreaker breaker(clock.fn());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Seven failures in a row are still a cold start, not an error rate.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().trips, 1);
  EXPECT_EQ(breaker.stats().rejected, 1);
}

TEST(CircuitBreakerTest, TripsWhenHalfTheWindowFails) {
  FakeClock clock;
  CircuitBreaker breaker(clock.fn());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();
  }
  // Four failures take the window to 3 of 8, then 4 of 9: under half.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed) << i;
  }
  // 5 of 10: half, open.
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseAfterSuccesses) {
  FakeClock clock;
  CircuitBreaker breaker(clock.fn());
  Trip(breaker);

  clock.Advance(std::chrono::milliseconds(99));
  EXPECT_FALSE(breaker.Allow());  // cooldown is 100 ms
  clock.Advance(std::chrono::milliseconds(1));
  ASSERT_TRUE(breaker.Allow());  // first probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.Allow());   // second probe
  EXPECT_FALSE(breaker.Allow());  // no more concurrent probes
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();  // two successful probes close it
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().probes, 2);
  EXPECT_EQ(breaker.stats().consecutive_trips, 0);  // backoff reset
}

TEST(CircuitBreakerTest, FailedProbeReopensWithExponentialBackoff) {
  FakeClock clock;
  CircuitBreaker breaker(clock.fn());
  Trip(breaker);  // trip 1: cooldown 100ms

  clock.Advance(std::chrono::milliseconds(101));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // failed probe -> trip 2: cooldown 200ms
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2);

  clock.Advance(std::chrono::milliseconds(101));
  EXPECT_FALSE(breaker.Allow());  // 100ms is no longer enough
  clock.Advance(std::chrono::milliseconds(100));
  EXPECT_TRUE(breaker.Allow());  // 201ms total: doubled cooldown expired
}

TEST(CircuitBreakerTest, BackoffDoublesUpToAFiveSecondCap) {
  FakeClock clock;
  CircuitBreaker breaker(clock.fn());
  Trip(breaker);
  for (int64_t cooldown_ms : {100, 200, 400, 800, 1600, 3200, 5000, 5000}) {
    clock.Advance(std::chrono::milliseconds(cooldown_ms - 1));
    EXPECT_FALSE(breaker.Allow()) << cooldown_ms;
    clock.Advance(std::chrono::milliseconds(1));
    ASSERT_TRUE(breaker.Allow()) << cooldown_ms;
    breaker.RecordFailure();  // the probe fails: re-open, doubled
  }
  EXPECT_EQ(breaker.stats().trips, 9);
}

TEST(CircuitBreakerTest, ModelSwapResetsToClosed) {
  FakeClock clock;
  CircuitBreaker breaker(clock.fn());
  Trip(breaker);
  breaker.OnModelSwapped();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.stats().consecutive_trips, 0);
}

// -- LastGoodCache and FallbackChain -----------------------------------------

TEST(LastGoodCacheTest, PersistenceSkipsNonFiniteReadings) {
  LastGoodCache cache;
  t::Tensor recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  float* data = recent.data();
  // Sensor 0: last reading NaN, previous one 7 -> persistence forecasts 7.
  data[(kSteps - 1) * kNodes * kFeatures] = kNaN;
  data[(kSteps - 2) * kNodes * kFeatures] = 7.0f;
  t::Tensor out = cache.Assemble(recent, kSteps);
  ASSERT_EQ(out.dim(0), kSteps);
  for (int64_t q = 0; q < kSteps; ++q) {
    EXPECT_FLOAT_EQ(out.data()[q * kNodes * kFeatures], 7.0f);
    EXPECT_FLOAT_EQ(out.data()[q * kNodes * kFeatures + 1], 1.0f);
  }
  EXPECT_EQ(cache.cached_sensors(), 0);
}

TEST(LastGoodCacheTest, ServesCachedForecastWhenGeometryMatches) {
  LastGoodCache cache;
  t::Tensor forecast = t::Tensor::Full(t::Shape{kSteps, kNodes, kFeatures}, 3.5f);
  cache.Update(forecast);
  EXPECT_EQ(cache.cached_sensors(), kNodes);
  t::Tensor recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  t::Tensor out = cache.Assemble(recent, kSteps);
  EXPECT_EQ(0, std::memcmp(out.data(), forecast.data(),
                           sizeof(float) * kSteps * kNodes * kFeatures));
}

TEST(LastGoodCacheTest, RefusesEntriesOlderThanMaxAge) {
  LastGoodCache cache;
  t::Tensor forecast = t::Tensor::Full(t::Shape{kSteps, kNodes, kFeatures}, 3.5f);
  cache.Update(forecast, /*logical_step=*/100);
  EXPECT_EQ(cache.cached_step(), 100);
  t::Tensor recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});

  // Fresh enough: the cached column answers and reports its age.
  int64_t age = -2;
  t::Tensor out = cache.Assemble(recent, kSteps, /*now_step=*/104,
                                 /*max_age_steps=*/8, &age);
  EXPECT_EQ(age, 4);
  EXPECT_FLOAT_EQ(out.data()[0], 3.5f);

  // Beyond the horizon: refused; persistence (the all-ones window) answers
  // and the age annotation stays -1.
  out = cache.Assemble(recent, kSteps, /*now_step=*/200, /*max_age_steps=*/8,
                       &age);
  EXPECT_EQ(age, -1);
  EXPECT_FLOAT_EQ(out.data()[0], 1.0f);

  // Unbounded horizon (the default) keeps the pre-staleness behavior.
  out = cache.Assemble(recent, kSteps, /*now_step=*/200, /*max_age_steps=*/-1,
                       &age);
  EXPECT_EQ(age, 100);
  EXPECT_FLOAT_EQ(out.data()[0], 3.5f);
}

TEST(FallbackChainTest, CacheTierReportsAgeAndHonorsStalenessBound) {
  auto dataset = TinyWorld();
  FallbackOptions options;
  options.max_cache_age_steps = 8;
  FallbackChain chain(options);  // no VAR baseline -> cache tier answers
  t::Tensor forecast = t::Tensor::Full(t::Shape{kSteps, kNodes, kFeatures}, 2.0f);
  chain.cache().Update(forecast, /*logical_step=*/50);

  data::Batch batch;
  batch.x = t::Tensor::Ones(t::Shape{2, kSteps, kNodes, kFeatures});
  batch.y = t::Tensor::Zeros(t::Shape{2, kSteps, kNodes, kFeatures});
  std::vector<t::Tensor> slices;
  std::vector<int64_t> ages;
  ServedBy served_by = ServedBy::kModel;
  // First request is 3 steps after the cached forecast, second is 30: the
  // first gets the cached column (age 3), the second falls to persistence.
  ASSERT_TRUE(chain.Run(batch, nullptr, kSteps, {53, 80}, &slices, &served_by,
                        &ages)
                  .ok());
  EXPECT_EQ(served_by, ServedBy::kCache);
  ASSERT_EQ(ages.size(), 2u);
  EXPECT_EQ(ages[0], 3);
  EXPECT_EQ(ages[1], -1);
  EXPECT_FLOAT_EQ(slices[0].data()[0], 2.0f);
  EXPECT_FLOAT_EQ(slices[1].data()[0], 1.0f);
}

TEST(FallbackChainTest, VarTierAnswersWhenFitted) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  FallbackChain chain((FallbackOptions()));
  chain.SetVarBaseline(FittedVar(*dataset, norm));

  data::Batch batch;
  batch.x = t::Slice(dataset->signals, 0, 0, kSteps)
                .Reshape(t::Shape{1, kSteps, kNodes, kFeatures});
  training::AppendCalendarFeatures(0, kSteps, kSteps, kStepsPerDay, &batch);
  batch.y = t::Tensor::Zeros(t::Shape{1, kSteps, kNodes, kFeatures});

  std::vector<t::Tensor> slices;
  ServedBy served_by = ServedBy::kModel;
  ASSERT_TRUE(chain.Run(batch, &norm, kSteps, {}, &slices, &served_by).ok());
  EXPECT_EQ(served_by, ServedBy::kVarBaseline);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_FALSE(t::HasNonFinite(slices[0]));
}

TEST(FallbackChainTest, CacheTierAnswersWithoutVarOrNormalizer) {
  auto dataset = TinyWorld();
  FallbackChain chain((FallbackOptions()));  // no VAR baseline
  data::Batch batch;
  batch.x = t::Slice(dataset->signals, 0, 0, kSteps)
                .Reshape(t::Shape{1, kSteps, kNodes, kFeatures});
  batch.y = t::Tensor::Zeros(t::Shape{1, kSteps, kNodes, kFeatures});
  std::vector<t::Tensor> slices;
  ServedBy served_by = ServedBy::kModel;
  ASSERT_TRUE(chain.Run(batch, nullptr, kSteps, {}, &slices, &served_by).ok());
  EXPECT_EQ(served_by, ServedBy::kCache);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_FALSE(t::HasNonFinite(slices[0]));
}

TEST(FallbackChainTest, InjectedFallbackFaultPropagates) {
  ScopedFailpoints fp("serve_fallback=error(Unavailable)");
  FallbackChain chain((FallbackOptions()));
  data::Batch batch;
  batch.x = t::Tensor::Ones(t::Shape{1, kSteps, kNodes, kFeatures});
  std::vector<t::Tensor> slices;
  ServedBy served_by = ServedBy::kModel;
  core::Status status =
      chain.Run(batch, nullptr, kSteps, {}, &slices, &served_by);
  EXPECT_EQ(status.code(), core::StatusCode::kUnavailable);
}

// -- Degraded-mode serving: bitwise-pinned against the direct model call -----

TEST(DegradedInferenceTest, ServerMatchesDirectMaskedCallBitwise) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();

  // The request: a real window with two sensor dropouts on channel 0.
  const int64_t first_step = 9;
  t::Tensor window = t::Slice(dataset->signals, 0, first_step, kSteps).Clone();
  window.data()[(1 * kNodes + 0) * kFeatures] = kNaN;
  window.data()[(4 * kNodes + 3) * kFeatures] = kNaN;

  // Direct path: sanitize a copy, then call the shared masked-inference
  // helper exactly as the batcher would for a batch of one.
  SanitizerOptions san_options;
  san_options.degradable_channels = {0};
  t::Tensor direct_window = window.Clone();
  auto sanitized = InputSanitizer(san_options).Sanitize(&direct_window);
  ASSERT_TRUE(sanitized.ok());
  ASSERT_EQ(sanitized.value().masked_positions, 2);

  model_ns::SstbanModel direct_model(config);
  data::Batch batch;
  batch.x = direct_window.Reshape(t::Shape{1, kSteps, kNodes, kFeatures});
  training::AppendCalendarFeatures(first_step, kSteps, kSteps, kStepsPerDay,
                                   &batch);
  batch.y = t::Tensor::Zeros(t::Shape{1, kSteps, kNodes, kFeatures});
  auto expected_or = training::RunBatchedInferenceMasked(
      &direct_model, norm, batch,
      sanitized.value().keep_pos.Reshape(t::Shape{1, kSteps, kNodes}));
  ASSERT_TRUE(expected_or.ok()) << expected_or.status().ToString();
  t::Tensor expected = std::move(expected_or).value();

  // Server path: same seed => bit-identical weights; batch of one.
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  ForecastRequest request;
  request.recent = window;
  request.first_step = first_step;
  auto submitted = server.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ForecastResult result = submitted.value().get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server.Shutdown();

  EXPECT_EQ(result.value().degradation, DegradationLevel::kPartial);
  EXPECT_EQ(result.value().served_by, ServedBy::kModel);
  EXPECT_EQ(result.value().masked_positions, 2);
  ASSERT_EQ(result.value().forecast.size(), expected.size());
  // Bitwise: the server's degraded answer IS the direct masked call.
  EXPECT_EQ(0, std::memcmp(result.value().forecast.data(), expected.data(),
                           sizeof(float) * expected.size()));

  auto snap = server.stats().TakeSnapshot();
  EXPECT_EQ(snap.degraded_partial, 1);
  EXPECT_EQ(snap.served_model, 1);
}

TEST(DegradedInferenceTest, HeavyMaskFractionAnnotatesHeavy) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ForecastServer server(TinyServerOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());

  // Mask 10 of 24 positions (> 30% heavy threshold).
  t::Tensor window = t::Slice(dataset->signals, 0, 0, kSteps).Clone();
  for (int64_t i = 0; i < 10; ++i) window.data()[i * kFeatures] = kNaN;
  ForecastRequest request;
  request.recent = window;
  auto submitted = server.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok());
  ForecastResult result = submitted.value().get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().degradation, DegradationLevel::kHeavy);
  EXPECT_EQ(result.value().masked_positions, 10);
  EXPECT_TRUE(result.value().degraded());
  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().degraded_heavy, 1);
}

TEST(DegradedInferenceTest, StrictServerRejectsNonFiniteAtSubmit) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.sanitizer.degradable_channels.clear();  // strict everywhere
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  t::Tensor window = t::Slice(dataset->signals, 0, 0, kSteps).Clone();
  window.data()[5] = kNaN;
  ForecastRequest request;
  request.recent = window;
  auto submitted = server.Submit(std::move(request));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), core::StatusCode::kInvalidArgument);
  server.Shutdown();
  auto snap = server.stats().TakeSnapshot();
  EXPECT_EQ(snap.rejected_nonfinite, 1);
  EXPECT_EQ(snap.rejected_invalid, 1);
}

// -- Fallback through the full server ----------------------------------------

TEST(ServerFallbackTest, ThrowingModelIsAbsorbedAndBreakerTrips) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  ModelRegistry registry([] { return std::make_unique<ThrowingModel>(); },
                         norm);
  registry.Install(std::make_unique<ThrowingModel>());

  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, &registry);
  server.SetVarBaseline(FittedVar(*dataset, norm));
  ASSERT_TRUE(server.Start().ok());

  // One batch per request: the eighth failure trips the breaker, and the
  // requests after it are shed to VAR (or, once the cooldown has passed,
  // probe the model, fail and re-open it).
  constexpr int kRequests = CircuitBreaker::kMinSamples + 2;
  for (int i = 0; i < kRequests; ++i) {
    ForecastRequest request;
    request.recent = t::Slice(dataset->signals, 0, i, kSteps);
    request.first_step = i;
    auto submitted = server.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    ForecastResult result = submitted.value().get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().served_by, ServedBy::kVarBaseline);
    EXPECT_TRUE(result.value().degraded());
    EXPECT_EQ(result.value().model_version, 0);
    EXPECT_FALSE(t::HasNonFinite(result.value().forecast));
  }
  server.Shutdown();

  auto snap = server.stats().TakeSnapshot();
  EXPECT_EQ(snap.served_var, kRequests);
  EXPECT_EQ(snap.served_model, 0);
  EXPECT_GE(snap.resilience.primary_trips, 1);
  EXPECT_EQ(snap.resilience.primary_breaker_state, "open");
  EXPECT_TRUE(snap.resilience.var_available);
}

TEST(ServerFallbackTest, CacheTierReplaysLastGoodForecast) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, &registry);  // no VAR: cache is tier 2
  ASSERT_TRUE(server.Start().ok());

  // First request succeeds on the model and warms the cache.
  ForecastRequest healthy;
  healthy.recent = t::Slice(dataset->signals, 0, 0, kSteps);
  auto first = server.Submit(std::move(healthy));
  ASSERT_TRUE(first.ok());
  ForecastResult first_result = first.value().get();
  ASSERT_TRUE(first_result.ok());
  ASSERT_EQ(first_result.value().served_by, ServedBy::kModel);

  // Then the model "breaks" (injected): the cached forecast answers.
  {
    ScopedFailpoints fp("serve_batch_run=error(Internal)");
    ForecastRequest during_outage;
    during_outage.recent = t::Slice(dataset->signals, 0, 3, kSteps);
    during_outage.first_step = 3;
    auto second = server.Submit(std::move(during_outage));
    ASSERT_TRUE(second.ok());
    ForecastResult second_result = second.value().get();
    ASSERT_TRUE(second_result.ok()) << second_result.status().ToString();
    EXPECT_EQ(second_result.value().served_by, ServedBy::kCache);
    EXPECT_EQ(0,
              std::memcmp(second_result.value().forecast.data(),
                          first_result.value().forecast.data(),
                          sizeof(float) * first_result.value().forecast.size()));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().served_cache, 1);
}

// -- Watchdog and health probes ----------------------------------------------

TEST(HealthTest, ReadyServerReportsReady) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ForecastServer server(TinyServerOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());
  HealthReport report = server.CheckHealth();
  EXPECT_TRUE(report.live);
  EXPECT_TRUE(report.ready);
  EXPECT_FALSE(report.wedged);
  EXPECT_EQ(report.model_version, 1);
  EXPECT_NE(report.ToString().find("READY"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"ready\": true"), std::string::npos);
  server.Shutdown();
  report = server.CheckHealth();
  EXPECT_FALSE(report.live);
  EXPECT_FALSE(report.ready);
}

TEST(HealthTest, WedgedBatcherFailsFastAndReportsNotReady) {
  core::Rng rng(4);
  data::Normalizer norm = data::Normalizer::Fit(
      t::Tensor::RandomNormal(t::Shape{32, kFeatures}, rng));
  auto gate_owner = std::make_unique<GateModel>();
  GateModel* gate = gate_owner.get();
  ModelRegistry registry([] { return std::make_unique<GateModel>(); }, norm);
  registry.Install(std::move(gate_owner));

  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  options.stall_budget = std::chrono::milliseconds(30);
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  ForecastRequest stuck;
  stuck.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  auto stuck_future = server.Submit(std::move(stuck));
  ASSERT_TRUE(stuck_future.ok());
  gate->WaitEntered(1);  // the batch is now in flight and blocked

  // Wait out the stall budget: the probe must flip to wedged. The poll has
  // no cap, so a slow host delays the test instead of failing it; the
  // suite's ctest TIMEOUT bounds a watchdog that never reports.
  while (!server.CheckHealth().wedged) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  HealthReport report = server.CheckHealth();
  EXPECT_TRUE(report.wedged);
  EXPECT_FALSE(report.ready);
  EXPECT_GT(report.batch_in_flight_seconds, 0.0);

  // Submit now fails fast instead of queueing behind the dead worker.
  ForecastRequest shed;
  shed.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  auto shed_result = server.Submit(std::move(shed));
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), core::StatusCode::kUnavailable);
  EXPECT_NE(shed_result.status().message().find("wedged"), std::string::npos);

  gate->Release();  // un-wedge; the stuck request completes normally
  EXPECT_TRUE(stuck_future.value().get().ok());
  server.Shutdown();
  auto snap = server.stats().TakeSnapshot();
  EXPECT_GE(snap.rejected_wedged, 1);
}

// -- Chaos: every request reaches exactly one allowed terminal status --------

// Allowed terminals: Ok (possibly degraded), Unavailable, DeadlineExceeded,
// InvalidArgument. std::promise enforces "exactly one" (a second set_value
// throws); future.get() returning at all proves "at least one".
bool AllowedTerminal(const ForecastResult& result) {
  if (result.ok()) return !t::HasNonFinite(result.value().forecast);
  switch (result.status().code()) {
    case core::StatusCode::kUnavailable:
    case core::StatusCode::kDeadlineExceeded:
    case core::StatusCode::kInvalidArgument:
      return true;
    default:
      return false;
  }
}

TEST(ChaosTest, EveryRequestTerminatesUnderEveryFaultSchedule) {
  const char* kSchedules[] = {
      "",  // control
      "serve_enqueue=error(Unavailable)@2",
      "serve_batch_run=error(Internal)",
      "serve_batch_run=error(Unavailable)@1",
      "serve_batch_run=delay(15)",
      "registry_get=error(Unavailable)@2",
      "serve_batch_run=error(Internal),serve_fallback=error(Unavailable)",
      "serve_enqueue=delay(3),serve_batch_run=error(Internal)@3",
      "registry_get=error(Unavailable),serve_fallback=error(Unavailable)@2",
  };

  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();

  for (const char* schedule : kSchedules) {
    SCOPED_TRACE(std::string("schedule: ") + schedule);
    ScopedFailpoints fp(schedule);

    ModelRegistry registry(
        [config] { return std::make_unique<model_ns::SstbanModel>(config); },
        norm);
    registry.Install(std::make_unique<model_ns::SstbanModel>(config));
    ForecastServer server(TinyServerOptions(), &registry);
    server.SetVarBaseline(FittedVar(*dataset, norm));
    ASSERT_TRUE(server.Start().ok());

    constexpr int kClients = 3;
    constexpr int kPerClient = 6;
    std::atomic<int> terminal{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kPerClient; ++r) {
          ForecastRequest request;
          int64_t start = (c * kPerClient + r) % 24;
          request.recent = t::Slice(dataset->signals, 0, start, kSteps).Clone();
          request.first_step = start;
          if (r % 3 == 1) {  // some requests carry masked-missing readings
            request.recent.data()[c * kFeatures] = kNaN;
          }
          if (r % 4 == 3) {  // some requests carry tight deadlines
            request.deadline =
                Clock::now() + std::chrono::milliseconds(10);
          }
          auto submitted = server.Submit(std::move(request));
          if (!submitted.ok()) {
            ForecastResult as_result(submitted.status());
            (AllowedTerminal(as_result) ? terminal : bad).fetch_add(1);
            continue;
          }
          ForecastResult result = submitted.value().get();
          (AllowedTerminal(result) ? terminal : bad).fetch_add(1);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    server.Shutdown();

    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(terminal.load(), kClients * kPerClient);
    // The worker survived the whole schedule (no wedge, no abort).
    EXPECT_FALSE(server.CheckHealth().wedged);
  }
}

// -- Resilience stats plumbing -----------------------------------------------

TEST(ResilienceStatsTest, SnapshotTableAndJsonCarryResilienceFields) {
  ServerStats stats;
  stats.RecordDegradation(DegradationLevel::kNone);
  stats.RecordDegradation(DegradationLevel::kPartial);
  stats.RecordDegradation(DegradationLevel::kPartial);
  stats.RecordDegradation(DegradationLevel::kHeavy);
  stats.RecordServedBy(ServedBy::kModel);
  stats.RecordServedBy(ServedBy::kVarBaseline);
  stats.RecordServedBy(ServedBy::kCache);
  stats.RecordRejectedNonFinite();
  stats.RecordRejectedWedged();
  stats.RecordSweptExpired(3);
  stats.SetResilienceProvider([] {
    ServerStats::ResilienceSummary summary;
    summary.var_available = true;
    summary.primary_breaker_state = "half-open";
    summary.primary_trips = 2;
    summary.primary_probes = 5;
    summary.primary_rejected = 7;
    summary.cached_sensors = 4;
    return summary;
  });

  ServerStats::Snapshot snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.degraded_none, 1);
  EXPECT_EQ(snap.degraded_partial, 2);
  EXPECT_EQ(snap.degraded_heavy, 1);
  EXPECT_EQ(snap.served_model, 1);
  EXPECT_EQ(snap.served_var, 1);
  EXPECT_EQ(snap.served_cache, 1);
  EXPECT_EQ(snap.rejected_nonfinite, 1);
  EXPECT_EQ(snap.rejected_invalid, 1);  // nonfinite counts as invalid too
  EXPECT_EQ(snap.rejected_wedged, 1);
  EXPECT_EQ(snap.swept_expired, 3);
  EXPECT_EQ(snap.resilience.primary_breaker_state, "half-open");
  EXPECT_EQ(snap.resilience.primary_trips, 2);
  EXPECT_EQ(snap.resilience.cached_sensors, 4);

  std::string table = stats.ReportTable();
  EXPECT_NE(table.find("degraded: none=1 partial=2 heavy=1"),
            std::string::npos);
  EXPECT_NE(table.find("served: model=1 var=1 cache=1"), std::string::npos);
  EXPECT_NE(table.find("state=half-open trips=2 probes=5 rejected=7"),
            std::string::npos);

  std::string json = stats.ReportJson();
  EXPECT_NE(json.find("\"degraded\": {\"none\": 1, \"partial\": 2, "
                      "\"heavy\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"served_by\": {\"model\": 1, \"var\": 1, "
                      "\"cache\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"primary_breaker\": {\"state\": \"half-open\", "
                      "\"trips\": 2, \"probes\": 5, \"rejected\": 7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"swept_expired\": 3"), std::string::npos);
}

}  // namespace
}  // namespace sstban::serving
