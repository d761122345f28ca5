// Tests for the overload-control subsystem: the adaptive admission
// controller (AIMD limit steering + shedding at the limit), the
// windowed service-time estimator behind cooperative deadline propagation,
// and the integrated server behavior: eager expired-deadline rejection and
// admission shedding with exact in-flight accounting.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "serving/overload/admission.h"
#include "serving/overload/estimator.h"
#include "serving/overload/overload.h"
#include "serving/request_queue.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"
#include "training/model.h"

namespace sstban::serving {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

constexpr int64_t kSteps = 6;
constexpr int64_t kNodes = 4;
constexpr int64_t kFeatures = 1;
constexpr int64_t kStepsPerDay = 12;

// -- AdmissionController -----------------------------------------------------

AdmissionOptions TinyAdmission() {
  AdmissionOptions options;
  options.initial_limit = 10.0;
  options.min_limit = 2.0;
  options.tolerance = 2.0;
  return options;
}

TEST(AdmissionControllerTest, LimitClimbsWhileLatencyTracksTheMinimum) {
  AdmissionController admission(TinyAdmission());
  const double before = admission.limit();
  for (int i = 0; i < 5; ++i) admission.OnBatchLatency(0.010);
  EXPECT_GT(admission.limit(), before);
  EXPECT_EQ(admission.TakeSnapshot().backoffs, 0);
}

TEST(AdmissionControllerTest, CongestionBacksOffMultiplicatively) {
  AdmissionController admission(TinyAdmission());
  admission.OnBatchLatency(0.010);  // establishes the moving minimum
  const double before = admission.limit();
  admission.OnBatchLatency(0.050);  // 5x the minimum, tolerance is 2x
  EXPECT_LT(admission.limit(), before);
  EXPECT_NEAR(admission.limit(), before * 0.9, 1e-9);
  EXPECT_EQ(admission.TakeSnapshot().backoffs, 1);
}

TEST(AdmissionControllerTest, LimitNeverDropsBelowTheFloor) {
  AdmissionController admission(TinyAdmission());
  admission.OnBatchLatency(0.010);
  for (int i = 0; i < 50; ++i) admission.OnBatchLatency(0.500);
  EXPECT_GE(admission.limit(), 2.0);
}

TEST(AdmissionControllerTest, WindowRollRebaselinesARegimeChange) {
  constexpr int kWindow = 128;  // batches per moving-minimum window
  AdmissionController admission(TinyAdmission());
  admission.OnBatchLatency(0.010);
  // A permanent shift to 50ms first reads as congestion...
  for (int i = 0; i < 2 * kWindow - 1; ++i) admission.OnBatchLatency(0.050);
  const auto mid = admission.TakeSnapshot();
  EXPECT_GT(mid.backoffs, 0);
  // ...but once a window containing only 50ms samples rolls, 50ms IS the
  // baseline: no further backoffs and the limit resumes climbing.
  const int64_t backoffs_before = mid.backoffs;
  const double before = admission.limit();
  for (int i = 0; i < kWindow; ++i) admission.OnBatchLatency(0.050);
  EXPECT_EQ(admission.TakeSnapshot().backoffs, backoffs_before);
  EXPECT_GT(admission.limit(), before);
}

TEST(AdmissionControllerTest, AdmitsExactlyTheLimitThenSheds) {
  AdmissionController admission(TinyAdmission());  // limit 10
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(admission.Admit()) << i;
  }
  EXPECT_FALSE(admission.Admit());  // 10 >= 10
  EXPECT_EQ(admission.TakeSnapshot().in_flight, 10);
  // One terminal frees exactly one slot.
  admission.OnTerminal();
  EXPECT_TRUE(admission.Admit());
  EXPECT_FALSE(admission.Admit());
  for (int i = 0; i < 10; ++i) admission.OnTerminal();
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionControllerTest, DisabledAdmitsEverythingAndNeverSteers) {
  AdmissionOptions options = TinyAdmission();
  options.enabled = false;
  options.initial_limit = 1.0;
  AdmissionController admission(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.Admit());
  }
  admission.OnBatchLatency(10.0);
  EXPECT_EQ(admission.limit(), 1.0);
  EXPECT_FALSE(admission.TakeSnapshot().enabled);
}

// -- ServiceTimeEstimator ----------------------------------------------------

TEST(ServiceTimeEstimatorTest, SilentUntilMinSamples) {
  ServiceTimeEstimator estimator(/*window=*/8, /*min_samples=*/4);
  for (int i = 0; i < 3; ++i) estimator.Record(1.0);
  EXPECT_EQ(estimator.P50(), 0.0);  // under-sampled: deadline gates stay off
  estimator.Record(1.0);
  EXPECT_GT(estimator.P50(), 0.0);
}

TEST(ServiceTimeEstimatorTest, TracksTheRecentMedian) {
  ServiceTimeEstimator estimator(/*window=*/4, /*min_samples=*/1);
  for (int i = 0; i < 4; ++i) estimator.Record(0.010);
  EXPECT_NEAR(estimator.P50(), 0.010, 1e-9);
  // The window slides: four slow samples displace the fast ones entirely.
  for (int i = 0; i < 4; ++i) estimator.Record(0.100);
  EXPECT_NEAR(estimator.P50(), 0.100, 1e-9);
}

// -- RequestQueue rejection causes -------------------------------------------

TEST(RequestQueueCauseTest, FullClosedAndExpiredAreDistinct) {
  RequestQueue queue(/*capacity=*/1);

  PendingRequest first;
  PushReject cause = PushReject::kNone;
  ASSERT_TRUE(queue.Push(&first, &cause).ok());
  EXPECT_EQ(cause, PushReject::kNone);

  PendingRequest overflow;
  core::Status full = queue.Push(&overflow, &cause);
  EXPECT_EQ(full.code(), core::StatusCode::kUnavailable);
  EXPECT_EQ(cause, PushReject::kFull);
  EXPECT_NE(full.message().find("load shed"), std::string::npos);

  PendingRequest expired;
  expired.request.deadline = Clock::now() - std::chrono::milliseconds(5);
  core::Status late = queue.Push(&expired, &cause);
  EXPECT_EQ(late.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cause, PushReject::kExpired);

  queue.Close();
  PendingRequest after_close;
  core::Status closed = queue.Push(&after_close, &cause);
  EXPECT_EQ(closed.code(), core::StatusCode::kUnavailable);
  EXPECT_EQ(cause, PushReject::kClosed);
  EXPECT_NE(closed.message().find("shut down"), std::string::npos);

  // The queued item is still poppable: shutdown drains, never drops.
  EXPECT_TRUE(queue.PopBlocking().has_value());
}

// -- Integrated server behavior ----------------------------------------------

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

model_ns::SstbanConfig TinyConfig() {
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
  config.seed = 5;
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
  options.max_wait = std::chrono::milliseconds(2);
  options.queue_capacity = 64;
  return options;
}

// A model whose forward pass blocks until released, to hold admission slots
// open deterministically.
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

ForecastRequest MakeRequest(const data::TrafficDataset& dataset,
                            int64_t first_step) {
  ForecastRequest request;
  request.recent = t::Slice(dataset.signals, 0, first_step, kSteps).Clone();
  request.first_step = first_step;
  return request;
}

TEST(ServerOverloadTest, AlreadyExpiredDeadlineIsRejectedAtSubmit) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ForecastServer server(TinyServerOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());

  ForecastRequest request = MakeRequest(*dataset, 0);
  request.deadline = Clock::now() - std::chrono::milliseconds(10);
  auto submitted = server.Submit(std::move(request));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_NE(submitted.status().message().find("expired at submit"),
            std::string::npos);
  // Rejected before it could hold a queue slot or an admission slot.
  EXPECT_EQ(server.overload().admission().in_flight(), 0);
  EXPECT_EQ(server.stats().TakeSnapshot().rejected_deadline, 1);
  server.Shutdown();
}

TEST(ServerOverloadTest, AdmissionShedsAtTheLimitAndAccountingBalances) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  auto gate_owner = std::make_unique<GateModel>();
  GateModel* gate = gate_owner.get();
  ModelRegistry registry([] { return std::make_unique<GateModel>(); }, norm);
  registry.Install(std::move(gate_owner));

  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  options.overload.admission.initial_limit = 4.0;
  options.overload.admission.min_limit = 4.0;
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  std::vector<ForecastFuture> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted = server.Submit(MakeRequest(*dataset, i));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  gate->WaitEntered(1);  // one in the model, three queued: all hold slots

  auto shed = server.Submit(MakeRequest(*dataset, 5));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("admission limit"),
            std::string::npos);
  EXPECT_EQ(server.stats().TakeSnapshot().shed_admission, 1);

  gate->Release();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  server.Shutdown();
  // Exactly one OnTerminal per admitted request: the slot count returns to
  // zero, so the shed was pressure, not a leak.
  EXPECT_EQ(server.overload().admission().in_flight(), 0);
  // And freed slots admit again.
  EXPECT_EQ(server.stats().TakeSnapshot().overload.in_flight, 0);
}

TEST(ServerOverloadTest, StatsReportsCarryTheOverloadBlock) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ForecastServer server(TinyServerOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());
  auto submitted = server.Submit(MakeRequest(*dataset, 0));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted.value().get().ok());
  server.Shutdown();

  const std::string table = server.stats().ReportTable();
  EXPECT_NE(table.find("overload"), std::string::npos);
  EXPECT_NE(table.find("shutdown="), std::string::npos);
  const std::string json = server.stats().ReportJson();
  EXPECT_NE(json.find("\"overload\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"rejected_shutdown\""), std::string::npos);
}

}  // namespace
}  // namespace sstban::serving
