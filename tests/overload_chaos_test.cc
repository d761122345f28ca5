// Chaos tests for overload control: a server driven far past its admission
// cap must shed cleanly (every request exactly one terminal, admission
// accounting balanced). The CI overload-chaos matrix additionally runs this
// whole binary under ambient SSTBAN_FAILPOINTS delay and error schedules.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"

namespace sstban::serving {
namespace {

namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

constexpr int64_t kSteps = 6;
constexpr int64_t kNodes = 12;
constexpr int64_t kFeatures = 1;
constexpr int64_t kStepsPerDay = 12;

std::shared_ptr<data::TrafficDataset> SmallWorld() {
  data::SyntheticWorldConfig config;
  config.num_nodes = kNodes;
  config.num_corridors = 3;
  config.steps_per_day = kStepsPerDay;
  config.num_days = 6;
  config.seed = 31;
  return std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(config));
}

model_ns::SstbanConfig SmallConfig() {
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

bool AllowedTerminal(const core::Status& status) {
  switch (status.code()) {
    case core::StatusCode::kOk:
    case core::StatusCode::kUnavailable:
    case core::StatusCode::kDeadlineExceeded:
    case core::StatusCode::kInvalidArgument:
      return true;
    default:
      return false;
  }
}

// Single-server overload: more clients than the admission cap hammer it and
// a tiny queue. The invariant is exactly-one-terminal for every submission
// (shed synchronously OR resolved through the future, never both, never
// neither) and a balanced admission ledger afterwards.
TEST(OverloadChaosTest, SaturatedServerShedsCleanlyAndEveryRequestTerminates) {
  auto dataset = SmallWorld();
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = SmallConfig();
  ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      norm);
  registry.Install(std::make_unique<model_ns::SstbanModel>(config));

  ServerOptions options;
  options.input_len = kSteps;
  options.output_len = kSteps;
  options.steps_per_day = kStepsPerDay;
  options.num_nodes = kNodes;
  options.num_features = kFeatures;
  options.max_batch = 1;  // a cap of kAdmitBatches requests, below kClients
  options.max_wait = std::chrono::milliseconds(1);
  options.queue_capacity = 8;
  ForecastServer server(options, &registry);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  constexpr int kPerClient = 15;
  std::atomic<int> terminal{0}, bad{0}, shed{0}, served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        ForecastRequest request;
        const int64_t start = (c * kPerClient + r) % 24;
        request.recent = t::Slice(dataset->signals, 0, start, kSteps).Clone();
        request.first_step = start;
        if (r % 4 == 3) {
          request.deadline =
              Clock::now() + std::chrono::milliseconds(5 + (r % 3) * 40);
        }
        auto submitted = server.Submit(std::move(request));
        if (!submitted.ok()) {
          (AllowedTerminal(submitted.status()) ? terminal : bad).fetch_add(1);
          shed.fetch_add(1);
          continue;
        }
        ForecastResult result = submitted.value().get();
        (AllowedTerminal(result.ok() ? core::Status::Ok() : result.status())
             ? terminal
             : bad)
            .fetch_add(1);
        if (result.ok()) served.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Shutdown();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(terminal.load(), kClients * kPerClient);
  EXPECT_GT(served.load(), 0);  // overload control never starves the server
  // Every admitted request released its slot exactly once — the ledger
  // balancing to zero is the "no leak, no double-release" invariant.
  EXPECT_EQ(server.overload().admission().in_flight(), 0);
}

}  // namespace
}  // namespace sstban::serving
