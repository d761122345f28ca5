// Tests for the src/serving/ inference stack: queue backpressure, deadline
// handling, batched-vs-sequential numerical equivalence, zero-downtime model
// hot-swap under concurrent load, graceful shutdown draining, checkpoint
// robustness (the registry's safety depends on LoadParameters rejecting
// partial files), and the stats reports.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "data/synthetic_world.h"
#include "nn/serialization.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "serving/request_queue.h"
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

std::shared_ptr<data::TrafficDataset> TinyWorld() {
  data::SyntheticWorldConfig config;
  config.num_nodes = kNodes;
  config.num_corridors = 2;
  config.steps_per_day = kStepsPerDay;
  config.num_days = 6;
  config.seed = 50;
  return std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(config));
}

model_ns::SstbanConfig TinyConfig(uint64_t seed = 1) {
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
  options.max_batch = 8;
  options.max_wait = std::chrono::milliseconds(20);
  options.queue_capacity = 64;
  return options;
}

ForecastRequest RequestAt(const data::TrafficDataset& dataset, int64_t start) {
  ForecastRequest request;
  request.recent = t::Slice(dataset.signals, 0, start, kSteps);
  request.first_step = start;
  return request;
}

// A model whose forward pass blocks until the test releases it, so tests can
// deterministically hold a batch "in flight" while they poke at the queue.
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

  // Blocks until `count` forward passes have started.
  void WaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this, count] { return entered_ >= count; });
  }
  // Lets every current and future forward pass through.
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

std::unique_ptr<ModelRegistry> GateRegistry(GateModel** out_model) {
  core::Rng rng(3);
  data::Normalizer norm = data::Normalizer::Fit(
      t::Tensor::RandomNormal(t::Shape{32, kFeatures}, rng));
  auto registry = std::make_unique<ModelRegistry>(
      [] { return std::make_unique<GateModel>(); }, norm);
  auto model = std::make_unique<GateModel>();
  *out_model = model.get();
  registry->Install(std::move(model));
  return registry;
}

// -- RequestQueue ------------------------------------------------------------

TEST(RequestQueueTest, BackpressureRejectsWhenFull) {
  RequestQueue queue(2);
  PendingRequest a, b, c;
  EXPECT_TRUE(queue.Push(&a).ok());
  EXPECT_TRUE(queue.Push(&b).ok());
  core::Status overflow = queue.Push(&c);
  EXPECT_EQ(overflow.code(), core::StatusCode::kUnavailable);
  EXPECT_EQ(queue.depth(), 2);
}

TEST(RequestQueueTest, RejectsExpiredBeforeEnqueue) {
  RequestQueue queue(4);
  PendingRequest req;
  req.request.deadline = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(queue.Push(&req).code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(RequestQueueTest, ClosedQueueRejectsPushButDrains) {
  RequestQueue queue(4);
  PendingRequest a;
  EXPECT_TRUE(queue.Push(&a).ok());
  queue.Close();
  PendingRequest b;
  EXPECT_EQ(queue.Push(&b).code(), core::StatusCode::kUnavailable);
  EXPECT_TRUE(queue.PopBlocking().has_value());   // drain the survivor
  EXPECT_FALSE(queue.PopBlocking().has_value());  // closed + empty
}

// -- Submission validation ---------------------------------------------------

TEST(ForecastServerTest, RejectsMismatchedGeometry) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  ForecastServer server(TinyServerOptions(), registry.get());
  ASSERT_TRUE(server.Start().ok());
  gate->Release();

  ForecastRequest wrong_nodes;
  wrong_nodes.recent = t::Tensor::Zeros(t::Shape{kSteps, kNodes + 1, 1});
  auto rejected = server.Submit(std::move(wrong_nodes));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), core::StatusCode::kInvalidArgument);
  // The message names both the expected geometry and the offending shape.
  EXPECT_NE(rejected.status().message().find("[6, 4, 1]"), std::string::npos);
  EXPECT_NE(rejected.status().message().find("[6, 5, 1]"), std::string::npos);
  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().rejected_invalid, 1);
}

TEST(ForecastServerTest, StartRefusesUnsetGeometry) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  gate->Release();
  {
    // The defaults leave the whole geometry unset.
    ForecastServer server(ServerOptions(), registry.get());
    core::Status status = server.Start();
    EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_FALSE(server.running());
  }
  // So is any one field left at zero or negative.
  for (int field = 0; field < 5; ++field) {
    for (int64_t unset : {0, -1}) {
      ServerOptions options = TinyServerOptions();
      int64_t* geometry[] = {&options.input_len, &options.output_len,
                             &options.steps_per_day, &options.num_nodes,
                             &options.num_features};
      *geometry[field] = unset;
      ForecastServer server(options, registry.get());
      EXPECT_EQ(server.Start().code(), core::StatusCode::kInvalidArgument)
          << "field " << field << " = " << unset;
      // A refused server takes no requests.
      ForecastRequest request;
      request.recent = t::Tensor::Zeros(t::Shape{kSteps, kNodes, kFeatures});
      EXPECT_EQ(server.Submit(std::move(request)).status().code(),
                core::StatusCode::kUnavailable);
    }
  }
}

TEST(ForecastServerTest, StartRefusesOutOfRangeOptions) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  gate->Release();
  struct Case {
    const char* field;
    void (*set)(ServerOptions* options);
  };
  const Case cases[] = {
      {"max_batch", [](ServerOptions* o) { o->max_batch = 0; }},
      // kAdmitBatches x max_batch would overflow.
      {"max_batch",
       [](ServerOptions* o) {
         o->max_batch = std::numeric_limits<int64_t>::max();
       }},
      {"queue_capacity", [](ServerOptions* o) { o->queue_capacity = 0; }},
      {"sanitizer.degradable_channels",
       [](ServerOptions* o) { o->sanitizer.degradable_channels = {-1}; }},
  };
  for (const Case& c : cases) {
    ServerOptions options = TinyServerOptions();
    c.set(&options);
    // Constructing the server must not abort: only Start judges options.
    ForecastServer server(options, registry.get());
    core::Status status = server.Start();
    EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument)
        << c.field << ": " << status.ToString();
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(server.running());
    ForecastRequest request;
    request.recent = t::Tensor::Zeros(t::Shape{kSteps, kNodes, kFeatures});
    EXPECT_EQ(server.Submit(std::move(request)).status().code(),
              core::StatusCode::kUnavailable);
  }
}

TEST(ForecastServerTest, RejectsAlreadyExpiredDeadline) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  ForecastServer server(TinyServerOptions(), registry.get());
  ASSERT_TRUE(server.Start().ok());
  gate->Release();

  ForecastRequest request;
  request.recent = t::Tensor::Zeros(t::Shape{kSteps, kNodes, kFeatures});
  request.deadline = Clock::now() - std::chrono::milliseconds(5);
  auto rejected = server.Submit(std::move(request));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), core::StatusCode::kDeadlineExceeded);
  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().rejected_deadline, 1);
}

// -- Backpressure and deadlines through the full server ----------------------

TEST(ForecastServerTest, FullQueueShedsLoadWhileBatchInFlight) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  options.queue_capacity = 2;
  ForecastServer server(options, registry.get());
  ASSERT_TRUE(server.Start().ok());

  t::Tensor window = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  auto submit = [&] {
    ForecastRequest request;
    request.recent = window;
    return server.Submit(std::move(request));
  };

  auto first = submit();
  ASSERT_TRUE(first.ok());
  gate->WaitEntered(1);  // the batcher holds request 1 in a forward pass
  auto second = submit();
  auto third = submit();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  auto overflow = submit();  // queue (capacity 2) is now full
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), core::StatusCode::kUnavailable);

  gate->Release();
  EXPECT_TRUE(first.value().get().ok());
  EXPECT_TRUE(second.value().get().ok());
  EXPECT_TRUE(third.value().get().ok());
  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().rejected_full, 1);
}

TEST(ForecastServerTest, DeadlineExpiresWhileQueuedIsRejectedWithoutCompute) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, registry.get());
  ASSERT_TRUE(server.Start().ok());

  ForecastRequest first;
  first.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  auto first_future = server.Submit(std::move(first));
  ASSERT_TRUE(first_future.ok());
  gate->WaitEntered(1);

  // The margin only has to cover the Submit call below; the gate opens once
  // the deadline has certainly passed, however long that takes.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(500);
  ForecastRequest doomed;
  doomed.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  doomed.deadline = deadline;
  auto doomed_future = server.Submit(std::move(doomed));
  ASSERT_TRUE(doomed_future.ok());

  while (Clock::now() <= deadline) {
    std::this_thread::sleep_until(deadline + std::chrono::milliseconds(1));
  }
  gate->Release();
  ForecastResult result = doomed_future.value().get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(first_future.value().get().ok());
  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().rejected_deadline, 1);
}

// -- Numerical equivalence ---------------------------------------------------

// The batcher's forward splits its batch by window, so each window runs as
// the one-window forward ForecastService makes: the answers agree bit for
// bit.
TEST(ForecastServerTest, BatchedMatchesSequentialForecastService) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();

  // Same config + seed => bit-identical weights in both deployment paths.
  model_ns::SstbanModel sequential_model(config);
  training::ForecastService service(&sequential_model, norm, kSteps, kSteps,
                                    kStepsPerDay, kNodes, kFeatures);

  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_wait = std::chrono::milliseconds(100);  // coalesce all six
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  std::vector<int64_t> starts = {0, 7, 13, 22, 30, 41};
  std::vector<ForecastFuture> futures;
  for (int64_t start : starts) {
    auto submitted = server.Submit(RequestAt(*dataset, start));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted.value()));
  }
  for (size_t i = 0; i < starts.size(); ++i) {
    ForecastResult batched = futures[i].get();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    auto sequential = service.Forecast(
        t::Slice(dataset->signals, 0, starts[i], kSteps), starts[i]);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    const t::Tensor& forecast = batched.value().forecast;
    ASSERT_EQ(forecast.shape(), sequential.value().shape());
    EXPECT_EQ(std::memcmp(forecast.data(), sequential.value().data(),
                          static_cast<size_t>(forecast.size()) * sizeof(float)),
              0)
        << "request " << i << " diverged between batched and sequential paths";
    EXPECT_FALSE(batched.value().degraded());
    EXPECT_EQ(batched.value().served_by, ServedBy::kModel);
    EXPECT_EQ(batched.value().model_version, 1);
  }
  server.Shutdown();
  // The six requests really were coalesced (fewer passes than requests).
  auto snap = server.stats().TakeSnapshot();
  EXPECT_EQ(snap.completed, 6);
  EXPECT_LT(snap.batches, 6);
}

// Calendar features repeat weekly, so a first_step near the top of int64
// must be served exactly like its residue modulo one week — not overflow
// while the window's offsets are added.
TEST(ForecastServerTest, LargestFirstStepServesItsWeeklyResidueBitwise) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;  // both requests run alone, as B = 1 forwards
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  constexpr int64_t kFar = std::numeric_limits<int64_t>::max() - 2;
  constexpr int64_t kResidue = kFar % (7 * kStepsPerDay);
  const t::Tensor window = t::Slice(dataset->signals, 0, 10, kSteps).Clone();
  auto serve = [&](int64_t first_step) {
    ForecastRequest request;
    request.recent = window;
    request.first_step = first_step;
    auto submitted = server.Submit(std::move(request));
    EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
    if (!submitted.ok()) return t::Tensor();
    ForecastResult result = submitted.value().get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return t::Tensor();
    EXPECT_EQ(result.value().served_by, ServedBy::kModel);
    return result.value().forecast;
  };
  const t::Tensor far = serve(kFar);
  const t::Tensor near = serve(kResidue);
  server.Shutdown();
  ASSERT_TRUE(far.defined() && near.defined());
  ASSERT_EQ(far.shape(), near.shape());
  EXPECT_EQ(std::memcmp(far.data(), near.data(),
                        static_cast<size_t>(far.size()) * sizeof(float)),
            0);
}

// -- Hot swap ----------------------------------------------------------------

TEST(ModelRegistryTest, FailedLoadKeepsCurrentVersion) {
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      data::Normalizer());
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  auto before = registry.current();
  ASSERT_NE(before, nullptr);

  std::string bogus = testing::TempDir() + "/bogus.sstb";
  std::ofstream(bogus, std::ios::binary) << "not a checkpoint";
  core::Status status = registry.LoadVersion(bogus);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(registry.current().get(), before.get());  // rollback = unchanged
  EXPECT_EQ(registry.current_version(), before->version);
  std::remove(bogus.c_str());
}

TEST(ForecastServerTest, HotSwapUnderConcurrentLoadLosesNothing) {
  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();

  // Two checkpoints with genuinely different weights.
  std::string ckpt_v1 = testing::TempDir() + "/serving_v1.sstb";
  std::string ckpt_v2 = testing::TempDir() + "/serving_v2.sstb";
  {
    model_ns::SstbanConfig seeded = config;
    seeded.seed = 11;
    ASSERT_TRUE(
        nn::SaveParameters(model_ns::SstbanModel(seeded), ckpt_v1).ok());
    seeded.seed = 22;
    ASSERT_TRUE(
        nn::SaveParameters(model_ns::SstbanModel(seeded), ckpt_v2).ok());
  }

  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  ASSERT_TRUE(registry.LoadVersion(ckpt_v1).ok());
  ForecastServer server(TinyServerOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  constexpr int kPerClient = 20;
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        int64_t start = (c * kPerClient + r) % 40;
        auto submitted = server.Submit(RequestAt(*dataset, start));
        if (!submitted.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ForecastResult result = submitted.value().get();
        if (result.ok() && !t::HasNonFinite(result.value().forecast)) {
          successes.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Swap back and forth while the clients hammer the server.
  ASSERT_TRUE(registry.LoadVersion(ckpt_v2).ok());
  ASSERT_TRUE(registry.LoadVersion(ckpt_v1).ok());
  ASSERT_TRUE(registry.LoadVersion(ckpt_v2).ok());
  for (std::thread& client : clients) client.join();
  server.Shutdown();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(successes.load(), kClients * kPerClient);
  EXPECT_EQ(registry.current_version(), 4);  // initial load + three swaps
  std::remove(ckpt_v1.c_str());
  std::remove(ckpt_v2.c_str());
}

// A hot-swap racing an in-flight batched Predict: the batch that was already
// running when Install(v2) landed must be served (and labeled) by v1 — the
// registry pin taken at batch start keeps the old version alive — while the
// next batch picks up v2. The CI TSan job runs this under ThreadSanitizer.
TEST(ForecastServerTest, HotSwapRacesInFlightBatchedPredict) {
  GateModel* gate_v1 = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate_v1);
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, registry.get());
  ASSERT_TRUE(server.Start().ok());

  // Pin v1 for the whole test: after the swap the batcher thread drops its
  // own v1 pin, and gate_v1 must stay valid for the Release() below.
  std::shared_ptr<const ModelRegistry::Served> v1_pin = registry->current();

  ForecastRequest in_flight;
  in_flight.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  auto first = server.Submit(std::move(in_flight));
  ASSERT_TRUE(first.ok());
  gate_v1->WaitEntered(1);  // v1's forward pass is running right now

  // Swap mid-flight. v2 must not block later passes, so pre-release it.
  auto v2 = std::make_unique<GateModel>();
  v2->Release();
  registry->Install(std::move(v2));
  ASSERT_EQ(registry->current_version(), 2);

  gate_v1->Release();
  ForecastResult first_result = first.value().get();
  ASSERT_TRUE(first_result.ok()) << first_result.status().ToString();
  EXPECT_EQ(first_result.value().model_version, 1);  // old version finished it

  ForecastRequest after_swap;
  after_swap.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  auto second = server.Submit(std::move(after_swap));
  ASSERT_TRUE(second.ok());
  ForecastResult second_result = second.value().get();
  ASSERT_TRUE(second_result.ok()) << second_result.status().ToString();
  EXPECT_EQ(second_result.value().model_version, 2);

  server.Shutdown();
  EXPECT_EQ(server.stats().TakeSnapshot().hot_swaps, 1);
}

// -- Deadline sweep ordering -------------------------------------------------

// Expired requests must be swept (DeadlineExceeded) BEFORE coalescing, not
// spend a model pass: a delay failpoint holds batch A in flight past B's
// deadline, so B can only terminate via the pre-batch sweep.
TEST(ForecastServerTest, ExpiredRequestIsSweptBeforeCoalescing) {
  struct ClearFailpoints {
    ~ClearFailpoints() { core::FailPoint::ClearAll(); }
  } guard;
  ASSERT_TRUE(core::FailPoint::Set("serve_batch_run", "delay(150)").ok());

  auto dataset = TinyWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = TinyConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));
  ServerOptions options = TinyServerOptions();
  options.max_batch = 1;  // B can never ride along in A's batch
  options.max_wait = std::chrono::microseconds(0);
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  auto a = server.Submit(RequestAt(*dataset, 0));
  ASSERT_TRUE(a.ok());
  ForecastRequest doomed = RequestAt(*dataset, 3);
  doomed.deadline = Clock::now() + std::chrono::milliseconds(30);
  auto b = server.Submit(std::move(doomed));
  ASSERT_TRUE(b.ok());

  // A's (delayed) pass outlives B's deadline; the sweep then rejects B
  // without ever popping it into a batch.
  ForecastResult a_result = a.value().get();
  EXPECT_TRUE(a_result.ok()) << a_result.status().ToString();
  ForecastResult b_result = b.value().get();
  ASSERT_FALSE(b_result.ok());
  EXPECT_EQ(b_result.status().code(), core::StatusCode::kDeadlineExceeded);

  server.Shutdown();
  ServerStats::Snapshot snap = server.stats().TakeSnapshot();
  EXPECT_GE(snap.swept_expired, 1);  // rejected by the sweep, not pop-path
  EXPECT_EQ(snap.completed, 1);
}

// -- Graceful shutdown -------------------------------------------------------

TEST(ForecastServerTest, ShutdownDrainsInFlightRequests) {
  GateModel* gate = nullptr;
  std::unique_ptr<ModelRegistry> registry = GateRegistry(&gate);
  ServerOptions options = TinyServerOptions();
  options.max_batch = 4;
  options.max_wait = std::chrono::microseconds(200);
  ForecastServer server(options, registry.get());
  ASSERT_TRUE(server.Start().ok());

  std::vector<ForecastFuture> futures;
  for (int i = 0; i < 10; ++i) {
    ForecastRequest request;
    request.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
    auto submitted = server.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  gate->WaitEntered(1);  // at least one batch is mid-flight

  std::thread shutdown_thread([&] { server.Shutdown(); });
  // New work is refused the moment shutdown begins...
  while (server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ForecastRequest late;
  late.recent = t::Tensor::Ones(t::Shape{kSteps, kNodes, kFeatures});
  EXPECT_EQ(server.Submit(std::move(late)).status().code(),
            core::StatusCode::kUnavailable);

  gate->Release();
  shutdown_thread.join();
  // ...but every request accepted before shutdown still gets its answer.
  for (ForecastFuture& future : futures) {
    ForecastResult result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(server.stats().TakeSnapshot().completed, 10);
}

// -- Checkpoint robustness (what hot-swap safety rests on) -------------------

class OneParamModule : public nn::Module {
 public:
  OneParamModule() {
    w_ = RegisterParameter("w", t::Tensor::Ones(t::Shape{3, 2}));
  }
  ag::Variable w_;
};

TEST(SerializationRobustnessTest, RejectsTruncatedCheckpoint) {
  std::string path = testing::TempDir() + "/trunc.sstb";
  OneParamModule module;
  ASSERT_TRUE(nn::SaveParameters(module, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 8u);
  // Chop mid-way through the parameter data.
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() - 5);

  OneParamModule reload;
  core::Status status = nn::LoadParameters(&reload, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kIoError);
  // The module was left untouched by the failed load.
  EXPECT_FLOAT_EQ(reload.w_.value().data()[0], 1.0f);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, RejectsTrailingGarbage) {
  std::string path = testing::TempDir() + "/trailing.sstb";
  OneParamModule module;
  ASSERT_TRUE(nn::SaveParameters(module, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "XTRA";
  }
  OneParamModule reload;
  core::Status status = nn::LoadParameters(&reload, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kIoError);
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
  std::remove(path.c_str());
}

// -- Stats -------------------------------------------------------------------

TEST(ServerStatsTest, ReportsContainStagesAndThroughput) {
  ServerStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.RecordQueueWait(i * 1e-4);
    stats.RecordEndToEnd(i * 1e-3);
    stats.RecordAccepted();
    stats.RecordCompleted();
  }
  stats.RecordBatch(4);
  stats.RecordBatch(8);
  stats.UpdateQueueDepth(5);
  stats.UpdateQueueDepth(2);

  ServerStats::Snapshot snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.completed, 100);
  EXPECT_EQ(snap.batches, 2);
  EXPECT_EQ(snap.queue_depth, 2);
  EXPECT_EQ(snap.peak_queue_depth, 5);
  EXPECT_GT(snap.requests_per_second, 0.0);
  // Quantiles are ordered and bracket the recorded range.
  EXPECT_LE(snap.end_to_end.p50, snap.end_to_end.p90);
  EXPECT_LE(snap.end_to_end.p90, snap.end_to_end.p99);
  EXPECT_LE(snap.end_to_end.p99, snap.end_to_end.max);
  EXPECT_NEAR(snap.end_to_end.p50, 0.050, 0.015);
  EXPECT_NEAR(snap.end_to_end.p99, 0.099, 0.02);

  std::string table = stats.ReportTable();
  EXPECT_NE(table.find("end_to_end"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_NE(table.find("4x1"), std::string::npos);  // batch-size distribution

  std::string json = stats.ReportJson();
  EXPECT_NE(json.find("\"requests_per_second\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_sizes\""), std::string::npos);
}

}  // namespace
}  // namespace sstban::serving
