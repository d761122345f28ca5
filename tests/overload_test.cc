// Tests for the overload-control subsystem: the admission rule (the
// in-flight cap and the predicted-completion check), the windowed
// batch-execution estimator both checks read, and the integrated server
// behavior: eager expired-deadline rejection, shedding and refusing with
// exact in-flight accounting, and whole bursts admitted behind a batch floor.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/failpoint.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
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

constexpr double kBatchP50 = 0.010;  // seconds

TEST(AdmissionControllerTest, AdmitsExactlyTheCapThenSheds) {
  AdmissionController admission(/*enabled=*/true, /*max_batch=*/2);
  ASSERT_EQ(admission.limit(), kAdmitBatches * 2);
  const Clock::time_point now = Clock::now();
  for (int64_t i = 0; i < admission.limit(); ++i) {
    ASSERT_EQ(admission.Admit(now, std::nullopt, kBatchP50),
              AdmissionController::Verdict::kAdmitted)
        << i;
  }
  EXPECT_EQ(admission.Admit(now, std::nullopt, kBatchP50),
            AdmissionController::Verdict::kShed);
  EXPECT_EQ(admission.in_flight(), admission.limit());
  // One terminal frees exactly one slot.
  admission.OnTerminal();
  EXPECT_EQ(admission.Admit(now, std::nullopt, kBatchP50),
            AdmissionController::Verdict::kAdmitted);
  EXPECT_EQ(admission.Admit(now, std::nullopt, kBatchP50),
            AdmissionController::Verdict::kShed);
  for (int64_t i = 0; i < admission.limit(); ++i) admission.OnTerminal();
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionControllerTest, RefusesWhatTheBatchesAheadCannotFinishInTime) {
  AdmissionController admission(/*enabled=*/true, /*max_batch=*/2);
  const Clock::time_point now = Clock::now();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(admission.Admit(now, std::nullopt, kBatchP50),
              AdmissionController::Verdict::kAdmitted);
  }
  // Three ahead: one full batch, then this request's own, 2 x 10 ms.
  EXPECT_EQ(admission.Admit(now, now + std::chrono::milliseconds(15),
                            kBatchP50),
            AdmissionController::Verdict::kLate);
  EXPECT_EQ(admission.in_flight(), 3);  // a refusal holds no slot
  EXPECT_EQ(admission.Admit(now, now + std::chrono::milliseconds(25),
                            kBatchP50),
            AdmissionController::Verdict::kAdmitted);
  // Four ahead: two full batches, then its own, 3 x 10 ms.
  EXPECT_EQ(admission.Admit(now, now + std::chrono::milliseconds(25),
                            kBatchP50),
            AdmissionController::Verdict::kLate);
  EXPECT_EQ(admission.in_flight(), 4);
}

TEST(AdmissionControllerTest, ColdEstimateOrNoDeadlinePredictsNothing) {
  AdmissionController admission(/*enabled=*/true, /*max_batch=*/1);
  const Clock::time_point now = Clock::now();
  // Under-sampled estimator (p50 0): a tight deadline is not judged.
  EXPECT_EQ(admission.Admit(now, now + std::chrono::microseconds(1), 0.0),
            AdmissionController::Verdict::kAdmitted);
  // No deadline: only the cap applies, however slow the batches.
  EXPECT_EQ(admission.Admit(now, std::nullopt, 10.0),
            AdmissionController::Verdict::kAdmitted);
  EXPECT_EQ(admission.in_flight(), 2);
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionController admission(/*enabled=*/false, /*max_batch=*/1);
  const Clock::time_point now = Clock::now();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(admission.Admit(now, now + std::chrono::microseconds(1), 10.0),
              AdmissionController::Verdict::kAdmitted);
  }
  // The ledger still counts, so in_flight drains the same way.
  EXPECT_EQ(admission.in_flight(), 100);
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
  options.max_batch = 1;  // the cap is kAdmitBatches requests
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.overload().admission().limit(), kAdmitBatches);

  std::vector<ForecastFuture> futures;
  for (int64_t i = 0; i < kAdmitBatches; ++i) {
    auto submitted = server.Submit(MakeRequest(*dataset, i));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  gate->WaitEntered(1);  // one in the model, the rest queued: all hold slots

  auto shed = server.Submit(MakeRequest(*dataset, kAdmitBatches + 1));
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

// Replaces the failpoint schedule for the test's scope, then restores the
// ambient one (SSTBAN_FAILPOINTS, which the overload-chaos CI rows set).
class ScopedFailPoints {
 public:
  explicit ScopedFailPoints(const std::string& list) {
    core::FailPoint::ClearAll();
    SSTBAN_CHECK(core::FailPoint::SetFromList(list).ok()) << list;
  }
  ~ScopedFailPoints() {
    core::FailPoint::ClearAll();
    const char* ambient = std::getenv("SSTBAN_FAILPOINTS");
    if (ambient != nullptr) (void)core::FailPoint::SetFromList(ambient);
  }
};

// Ordinary queueing is not overload: bursts of three full batches behind a
// 5 ms batch floor, each request due within 1 s. The queue ahead of every
// request finishes in time, so all of them are admitted and answered. Forty
// bursts, because a limiter that misreads such waits as congestion refused
// nothing in the first eight to ten.
TEST(ServerOverloadTest, BurstsOfThreeBatchesAreAdmittedWhole) {
  ScopedFailPoints batch_floor("serve_batch_run=delay(5)");
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_batch = 8;
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kBursts = 40;
  constexpr int kBurst = 24;
  for (int burst = 0; burst < kBursts; ++burst) {
    std::vector<ForecastFuture> futures;
    for (int i = 0; i < kBurst; ++i) {
      ForecastRequest request = MakeRequest(*dataset, i);
      request.deadline = Clock::now() + std::chrono::seconds(1);
      auto submitted = server.Submit(std::move(request));
      ASSERT_TRUE(submitted.ok()) << "burst " << burst << ", request " << i
                                  << ": " << submitted.status().ToString();
      futures.push_back(std::move(submitted).value());
    }
    for (ForecastFuture& future : futures) {
      ForecastResult result = future.get();
      ASSERT_TRUE(result.ok()) << "burst " << burst << ": "
                               << result.status().ToString();
    }
  }
  server.Shutdown();
  ServerStats::Snapshot snap = server.stats().TakeSnapshot();
  EXPECT_EQ(snap.accepted, kBursts * kBurst);
  EXPECT_EQ(snap.completed, kBursts * kBurst);
  EXPECT_EQ(snap.shed_admission, 0);
  EXPECT_EQ(snap.rejected_predicted_late, 0);
  EXPECT_EQ(server.overload().admission().in_flight(), 0);
}

// Once the batch estimate is warm, a deadline closer than one batch time is
// refused at Submit with DeadlineExceeded, counted apart from queue expiry,
// and holds no slot.
TEST(ServerOverloadTest, DeadlineInsideOneBatchTimeIsRefusedAtSubmit) {
  ScopedFailPoints batch_floor("serve_batch_run=delay(20)");
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  // Sixteen batches warm the estimate; each takes at least 20 ms. The
  // batcher records a batch's time after fulfilling it and runs one batch
  // at a time, so the 17th answer means the 16th sample is in.
  for (int i = 0; i < 17; ++i) {
    auto submitted = server.Submit(MakeRequest(*dataset, i));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted.value().get().ok());
  }
  ASSERT_GE(server.overload().service_estimator().P50(), 0.020);

  ForecastRequest hurried = MakeRequest(*dataset, 0);
  hurried.deadline = Clock::now() + std::chrono::milliseconds(10);
  auto refused = server.Submit(std::move(hurried));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_NE(refused.status().message().find("cannot finish before deadline"),
            std::string::npos);
  server.Shutdown();
  ServerStats::Snapshot snap = server.stats().TakeSnapshot();
  EXPECT_EQ(snap.rejected_predicted_late, 1);
  EXPECT_EQ(snap.rejected_deadline, 0);
  EXPECT_EQ(server.overload().admission().in_flight(), 0);
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
