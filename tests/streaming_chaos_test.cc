// Chaos properties of shadow-gated promotion, pinned under randomized
// injected-fault schedules and concurrent serving traffic:
//   1. the serving incumbent is never replaced by a candidate whose shadow
//      score is not strictly better — the installed model's true error is
//      monotone non-increasing no matter which faults fire;
//   2. every in-flight request reaches exactly one terminal status while
//      promotions and rollbacks hot-swap the registry underneath the server;
//   3. a sustained post-promotion live regression always rolls back (the
//      rollback path is failpoint-free by design).
// The suite tolerates an ambient SSTBAN_FAILPOINTS schedule from the CI
// fault matrix: assertions that require a fault-free environment are relaxed
// to their guarded forms when one is present.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "streaming/promotion.h"
#include "tensor/tensor.h"
#include "training/model.h"

namespace sstban::streaming {
namespace {

namespace t = ::sstban::tensor;
namespace ag = ::sstban::autograd;

constexpr int64_t kNodes = 4;
constexpr int64_t kFeatures = 1;
constexpr int64_t kSteps = 6;
constexpr int64_t kStepsPerDay = 12;
constexpr float kTruth = 3.0f;  // the world is constant kTruth everywhere

bool AmbientFaults() {
  const char* env = std::getenv("SSTBAN_FAILPOINTS");
  return env != nullptr && *env != '\0';
}

// Forecasts a constant, so true serving MAE is exactly |bias - kTruth| and
// the monotonicity property can be checked against ground truth.
class BiasModel : public training::TrafficModel {
 public:
  explicit BiasModel(float bias = 0.0f) {
    bias_ = RegisterParameter("bias", t::Tensor::Full(t::Shape{1}, bias));
  }
  ag::Variable Predict(const t::Tensor& x_norm,
                       const data::Batch& batch) override {
    return ag::Variable(t::Tensor::Full(
        t::Shape{x_norm.dim(0), batch.output_len(), x_norm.dim(2),
                 x_norm.dim(3)},
        bias_.value().data()[0]));
  }
  std::string name() const override { return "Bias"; }
  float bias() const { return bias_.value().data()[0]; }

 private:
  ag::Variable bias_;
};

struct ChaosRig {
  std::shared_ptr<data::TrafficDataset> dataset;
  std::unique_ptr<data::WindowDataset> windows;
  data::Normalizer normalizer = data::Normalizer::FromMoments({0.0f}, {1.0f});
  serving::ModelRegistry::ModelFactory factory;
  std::unique_ptr<serving::ModelRegistry> registry;
  std::vector<int64_t> shadow_indices = {0, 1, 2};
};

ChaosRig MakeRig(float incumbent_bias) {
  ChaosRig rig;
  data::TrafficDataset dataset;
  dataset.name = "const";
  dataset.steps_per_day = kStepsPerDay;
  const int64_t steps = 3 * kSteps;
  dataset.signals =
      t::Tensor::Full(t::Shape{steps, kNodes, kFeatures}, kTruth);
  dataset.time_of_day.resize(steps);
  dataset.day_of_week.resize(steps);
  for (int64_t i = 0; i < steps; ++i) {
    dataset.time_of_day[i] = i % kStepsPerDay;
    dataset.day_of_week[i] = (i / kStepsPerDay) % 7;
  }
  rig.dataset = std::make_shared<data::TrafficDataset>(std::move(dataset));
  rig.windows =
      std::make_unique<data::WindowDataset>(rig.dataset, kSteps, kSteps);
  rig.factory = [] { return std::make_unique<BiasModel>(); };
  rig.registry =
      std::make_unique<serving::ModelRegistry>(rig.factory, rig.normalizer);
  rig.registry->Install(std::make_unique<BiasModel>(incumbent_bias));
  return rig;
}

float ServedBias(const serving::ModelRegistry& registry) {
  auto served = registry.current();
  return static_cast<const BiasModel*>(served->model.get())->bias();
}

double TrueMae(float bias) { return std::abs(bias - kTruth); }

TEST(StreamingChaosTest, IncumbentErrorIsMonotoneUnderEverySchedule) {
  ChaosRig rig = MakeRig(/*incumbent_bias=*/0.0f);
  PromotionGate gate(rig.registry.get(), rig.factory);

  // A deterministic mix of candidate qualities and fault schedules. The
  // per-round Clear of the two gate failpoints also clears any ambient
  // arming of those names after the first round; every other ambient
  // failpoint stays live for the whole loop.
  const std::vector<std::string> schedules = {
      "",
      "shadow_eval=error(kUnavailable)@1",  // candidate unscorable
      "shadow_eval=error(kUnavailable)@2",  // incumbent unscorable
      "shadow_eval=error(kInternal)",       // everything unscorable
      "promote_swap=error(kIoError)@1",     // the swap itself faults
      "promote_swap=crash@99999",           // armed but never fires
  };
  core::Rng rng(123);
  int64_t expected_version = rig.registry->current_version();
  for (int round = 0; round < 48; ++round) {
    const float candidate_bias =
        -5.0f + 13.0f * static_cast<float>(rng.NextDouble());
    const std::string& schedule =
        schedules[rng.NextBelow(static_cast<uint32_t>(schedules.size()))];
    if (!schedule.empty()) {
      ASSERT_TRUE(core::FailPoint::SetFromList(schedule).ok());
    }

    const float bias_before = ServedBias(*rig.registry);
    auto decision = gate.TryPromote(
        std::make_unique<BiasModel>(candidate_bias), *rig.windows,
        rig.shadow_indices, rig.normalizer);
    core::FailPoint::Clear("shadow_eval");
    core::FailPoint::Clear("promote_swap");
    ASSERT_TRUE(decision.ok());

    const float bias_after = ServedBias(*rig.registry);
    if (decision.value().promoted) {
      // A promotion must be justified by the scores it recorded.
      EXPECT_LT(decision.value().candidate_score,
                decision.value().incumbent_score);
      // When the incumbent was genuinely measured, winning on the shadow
      // score means winning on true error too (in this rig score == truth).
      // An *unmeasurable* incumbent (injected scoring fault) is deliberately
      // treated as infinitely bad — promotion is the recovery path — so only
      // the finite case pins monotonicity.
      if (std::isfinite(decision.value().incumbent_score)) {
        EXPECT_LT(TrueMae(bias_after), TrueMae(bias_before))
            << "round " << round << " (schedule '" << schedule
            << "') made serving worse on a measured comparison";
      }
      ++expected_version;
    } else {
      EXPECT_EQ(bias_after, bias_before) << "refusal must not touch serving";
    }
    EXPECT_EQ(rig.registry->current_version(), expected_version)
        << "registry version moved without a winning decision";
  }
  EXPECT_EQ(gate.promotions() + gate.refusals(), 48);
}

TEST(StreamingChaosTest, RegressionAfterPromotionAlwaysRollsBack) {
  ChaosRig rig = MakeRig(/*incumbent_bias=*/1.0f);
  PromotionGate gate(rig.registry.get(), rig.factory);

  auto decision =
      gate.TryPromote(std::make_unique<BiasModel>(2.5f), *rig.windows,
                      rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(decision.ok());
  if (!decision.value().promoted) {
    // Only an ambient fault schedule can refuse this strictly-better
    // candidate; under a clean environment the promotion must happen.
    ASSERT_TRUE(AmbientFaults()) << decision.value().reason;
    return;
  }
  // The model regressed in live traffic. The rollback path has no failpoint
  // by design, so this must succeed even under an ambient fault schedule.
  for (int64_t i = 1; i < PromotionGate::kRollbackAfter; ++i) {
    EXPECT_FALSE(gate.ObserveLive(1e9));
  }
  EXPECT_TRUE(gate.ObserveLive(1e9));
  EXPECT_EQ(gate.rollbacks(), 1);
  EXPECT_FLOAT_EQ(ServedBias(*rig.registry), 1.0f);
  EXPECT_EQ(rig.registry->current()->source, "rollback");
}

TEST(StreamingChaosTest, EveryRequestReachesExactlyOneTerminalAcrossSwaps) {
  ChaosRig rig = MakeRig(/*incumbent_bias=*/0.0f);

  serving::ServerOptions server_options;
  server_options.input_len = kSteps;
  server_options.output_len = kSteps;
  server_options.steps_per_day = kStepsPerDay;
  server_options.num_nodes = kNodes;
  server_options.num_features = kFeatures;
  server_options.max_batch = 4;
  server_options.max_wait = std::chrono::microseconds(200);
  server_options.queue_capacity = 64;
  serving::ForecastServer server(server_options, rig.registry.get());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<int> terminal{0}, bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        serving::ForecastRequest request;
        request.recent =
            t::Tensor::Full(t::Shape{kSteps, kNodes, kFeatures}, kTruth);
        request.first_step = c * kPerClient + i;
        auto submitted = server.Submit(std::move(request));
        if (!submitted.ok()) {
          // Load shed at the door is a legitimate terminal.
          (submitted.status().code() == core::StatusCode::kUnavailable
               ? terminal
               : bad)
              .fetch_add(1);
          continue;
        }
        serving::ForecastResult result = submitted.value().get();
        const bool allowed =
            result.ok() ||
            result.status().code() == core::StatusCode::kUnavailable ||
            result.status().code() == core::StatusCode::kDeadlineExceeded;
        (allowed ? terminal : bad).fetch_add(1);
      }
    });
  }

  // Meanwhile: promotions, refusals, faulted swaps, and rollbacks hot-swap
  // the registry under the serving path.
  PromotionGate gate(rig.registry.get(), rig.factory);
  core::Rng rng(7);
  for (int round = 0; round < 24; ++round) {
    const float candidate_bias =
        -2.0f + 7.0f * static_cast<float>(rng.NextDouble());
    if (rng.NextBelow(4) == 0) {
      ASSERT_TRUE(
          core::FailPoint::Set("promote_swap", "error(kIoError)@1").ok());
    }
    auto decision = gate.TryPromote(
        std::make_unique<BiasModel>(candidate_bias), *rig.windows,
        rig.shadow_indices, rig.normalizer);
    core::FailPoint::Clear("promote_swap");
    ASSERT_TRUE(decision.ok());
    if (decision.value().promoted && rng.NextBelow(2) == 0) {
      // Immediate regression: rollback mid-traffic.
      for (int64_t i = 0; i < PromotionGate::kRollbackAfter; ++i) {
        gate.ObserveLive(1e9);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (std::thread& client : clients) client.join();
  server.Shutdown();
  EXPECT_EQ(terminal.load() + bad.load(), kClients * kPerClient);
  EXPECT_EQ(bad.load(), 0) << "some request reached a disallowed terminal";
  EXPECT_EQ(terminal.load(), kClients * kPerClient);
  // The serving model at the end is one the gate audited: its true error is
  // no worse than where the fleet started.
  EXPECT_LE(TrueMae(ServedBias(*rig.registry)), TrueMae(0.0f));
}

}  // namespace
}  // namespace sstban::streaming
