// The three ROADMAP drift scenarios, end-to-end through the
// AdaptationController against a trained SSTBAN incumbent:
//   1. sudden sensor recalibration  -> detect, adapt, gate decides;
//   2. seasonal demand shift        -> detect, adapt, gate decides;
//   3. growing city (new sensors)   -> refuse at the ingest boundary, no
//      adaptation — model geometry is fixed at training time.
// Everything is seeded, so each scenario's event trace is deterministic.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "serving/model_registry.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "streaming/adaptation_controller.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "training/trainer.h"

namespace sstban::streaming {
namespace {

namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

constexpr int64_t kNodes = 4;
constexpr int64_t kFeatures = 1;
constexpr int64_t kSteps = 6;  // P = Q
constexpr int64_t kStepsPerDay = 12;

class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { core::FailPoint::ClearAll(); }
  void TearDown() override { core::FailPoint::ClearAll(); }
};
using DriftTransformTest = ScenarioTest;

data::SyntheticWorldConfig WorldConfig() {
  data::SyntheticWorldConfig config;
  config.num_nodes = kNodes;
  config.num_corridors = 2;
  config.steps_per_day = kStepsPerDay;
  // Half the stream, before the drift, is 180 slices: 29 shadow scores, one
  // every Q = 6 slices once P + Q are in, so the detector's 16-score warmup
  // is done and its baseline has been stable for 13 before the shift.
  config.num_days = 30;
  config.seed = 50;
  return config;
}

model_ns::SstbanConfig ModelConfig() {
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
  config.seed = 1;
  return config;
}

// One [N, C] slice of `dataset` at time index `i`, as the feed delivers it.
t::Tensor SliceAt(const data::TrafficDataset& dataset, int64_t i) {
  return t::Slice(dataset.signals, 0, i, 1)
      .Reshape(t::Shape{dataset.num_nodes(), dataset.num_features()});
}

struct Deployment {
  std::shared_ptr<data::TrafficDataset> base;
  data::Normalizer normalizer = data::Normalizer::FromMoments({0.0f}, {1.0f});
  serving::ModelRegistry::ModelFactory factory;
  std::unique_ptr<serving::ModelRegistry> registry;
  std::unique_ptr<AdaptationController> controller;
};

// Trains a small incumbent on the base world and stands up the full
// streaming pipeline around it.
Deployment MakeDeployment() {
  Deployment d;
  d.base = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(WorldConfig()));
  data::WindowDataset windows(d.base, kSteps, kSteps);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  d.normalizer = data::Normalizer::Fit(d.base->signals);

  auto incumbent = std::make_unique<model_ns::SstbanModel>(ModelConfig());
  training::TrainerConfig train;
  train.max_epochs = 2;
  train.batch_size = 8;
  training::Trainer(train).Train(incumbent.get(), windows, split,
                                 d.normalizer);

  d.factory = [] { return std::make_unique<model_ns::SstbanModel>(ModelConfig()); };
  d.registry =
      std::make_unique<serving::ModelRegistry>(d.factory, d.normalizer);
  d.registry->Install(std::move(incumbent), "initial-train");

  AdaptationControllerOptions options;
  options.ingest.num_nodes = kNodes;
  options.ingest.num_features = kFeatures;
  options.ingest.input_len = kSteps;
  options.ingest.output_len = kSteps;
  options.ingest.steps_per_day = kStepsPerDay;
  options.adapter.num_steps = 6;
  options.factory = d.factory;
  d.controller =
      std::make_unique<AdaptationController>(options, d.registry.get());
  return d;
}

// Streams dataset slices [from, to) and returns the events that fired.
std::vector<StreamEvent> StreamRange(Deployment& d,
                                     const data::TrafficDataset& dataset,
                                     int64_t from, int64_t to) {
  std::vector<StreamEvent> events;
  for (int64_t i = from; i < to; ++i) {
    auto event = d.controller->OnSlice(SliceAt(dataset, i), i);
    EXPECT_TRUE(event.ok()) << "slice " << i << ": "
                            << event.status().ToString();
    if (event.ok()) events.push_back(event.value());
  }
  return events;
}

int64_t Count(const std::vector<StreamEvent>& events, StreamEvent wanted) {
  int64_t count = 0;
  for (StreamEvent event : events) count += event == wanted ? 1 : 0;
  return count;
}

// Shared body for the two true-drift scenarios: stream the unchanged prefix
// (must stay quiet), stream the drifted suffix (must confirm and run at
// least one gated adaptation round), and check the registry moved only
// through principled decisions.
void RunDriftScenario(Deployment& d, const data::TrafficDataset& drifted,
                      int64_t drift_start) {
  const int64_t total = drifted.num_steps();

  std::vector<StreamEvent> quiet =
      StreamRange(d, drifted, 0, drift_start);
  EXPECT_EQ(d.controller->adaptation_rounds(), 0)
      << "adaptation round fired before any drift existed";
  EXPECT_EQ(Count(quiet, StreamEvent::kPromoted), 0);
  EXPECT_EQ(d.registry->current_version(), 1);
  EXPECT_GT(d.controller->evals(), 0) << "incumbent was never shadow-scored";

  std::vector<StreamEvent> noisy = StreamRange(d, drifted, drift_start, total);
  EXPECT_GE(d.controller->adaptation_rounds(), 1)
      << "sustained drift never confirmed";
  EXPECT_EQ(d.controller->adapt_failures(), 0)
      << d.controller->last_adapt_status().ToString();

  // Every round ended in exactly one gate decision, and the registry only
  // moved on wins: version = initial + promotions.
  const PromotionGate& gate = d.controller->gate();
  EXPECT_EQ(gate.promotions() + gate.refusals(),
            d.controller->adaptation_rounds());
  EXPECT_EQ(d.registry->current_version(), 1 + gate.promotions());
  EXPECT_EQ(Count(noisy, StreamEvent::kPromoted), gate.promotions());
  if (gate.promotions() > 0) {
    EXPECT_EQ(d.registry->current()->source, "online-adapt");
  }
  // The decision was made on real scores, not defaults.
  EXPECT_TRUE(std::isfinite(gate.last_decision().candidate_score));
  EXPECT_TRUE(std::isfinite(gate.last_decision().incumbent_score));
}

TEST_F(ScenarioTest, SuddenSensorRecalibrationIsDetectedAndAdapted) {
  Deployment d = MakeDeployment();
  const int64_t drift_start = d.base->num_steps() / 2;
  data::TrafficDataset drifted = data::ApplySensorRecalibration(
      *d.base, drift_start, /*node_fraction=*/0.5, /*gain=*/2.0,
      /*offset=*/5.0, /*seed=*/7);
  RunDriftScenario(d, drifted, drift_start);
}

TEST_F(ScenarioTest, SeasonalShiftIsDetectedAndAdapted) {
  Deployment d = MakeDeployment();
  const int64_t drift_start = d.base->num_steps() / 2;
  data::TrafficDataset drifted = data::ApplySeasonalShift(
      *d.base, drift_start, /*amplitude=*/1.5, /*ramp_steps=*/kStepsPerDay);
  RunDriftScenario(d, drifted, drift_start);
}

TEST_F(ScenarioTest, GrowingCityIsRefusedWithoutCorruptingTheStream) {
  Deployment d = MakeDeployment();
  const int64_t cutover = 3 * (kSteps + kSteps);
  StreamRange(d, *d.base, 0, cutover);
  const int64_t evals_before = d.controller->evals();
  const int64_t next_before = d.controller->ingestor().next_step();

  // The city grew: the feed starts delivering slices with two extra sensors.
  data::TrafficDataset grown = data::AttachNewSensors(*d.base, 2, /*seed=*/9);
  ASSERT_EQ(grown.num_nodes(), kNodes + 2);
  for (int64_t i = cutover; i < cutover + 5; ++i) {
    auto event = d.controller->OnSlice(SliceAt(grown, i), i);
    ASSERT_TRUE(event.ok());
    EXPECT_EQ(event.value(), StreamEvent::kGeometryChange);
  }
  EXPECT_EQ(d.controller->geometry_changes(), 5);

  // A deliberate refusal, not a crash or a silent corruption: no adaptation,
  // no promotion, the ring and clock untouched, and the old-geometry stream
  // resumes exactly where it left off.
  EXPECT_EQ(d.controller->adaptation_rounds(), 0);
  EXPECT_EQ(d.registry->current_version(), 1);
  EXPECT_EQ(d.controller->ingestor().next_step(), next_before);
  EXPECT_EQ(d.controller->ingestor().rejected_geometry(), 0)
      << "geometry events must be pre-checked, not half-appended";
  auto resumed = d.controller->OnSlice(SliceAt(*d.base, cutover), cutover);
  ASSERT_TRUE(resumed.ok());
  EXPECT_NE(resumed.value(), StreamEvent::kGeometryChange);
  EXPECT_GE(d.controller->evals(), evals_before);
}

TEST_F(ScenarioTest, IngestFaultPropagatesWithoutStateDamage) {
  Deployment d = MakeDeployment();
  StreamRange(d, *d.base, 0, 4);
  ASSERT_TRUE(
      core::FailPoint::Set("ingest_append", "error(kUnavailable)@1").ok());
  auto event = d.controller->OnSlice(SliceAt(*d.base, 4), 4);
  EXPECT_EQ(event.status().code(), core::StatusCode::kUnavailable);
  core::FailPoint::ClearAll();
  EXPECT_EQ(d.controller->ingestor().size(), 4);
  EXPECT_TRUE(d.controller->OnSlice(SliceAt(*d.base, 4), 4).ok());
}

// -- The drift transforms themselves ----------------------------------------

TEST_F(DriftTransformTest, RecalibrationIsAffineAfterCutoverOnly) {
  data::TrafficDataset base = data::GenerateSyntheticWorld(WorldConfig());
  const int64_t cut = base.num_steps() / 2;
  data::TrafficDataset drifted =
      data::ApplySensorRecalibration(base, cut, 1.0, 2.0, 5.0, 7);
  ASSERT_EQ(drifted.num_steps(), base.num_steps());
  const float* b = base.signals.data();
  const float* a = drifted.signals.data();
  const int64_t per_step = kNodes * kFeatures;
  for (int64_t i = 0; i < cut * per_step; ++i) {
    ASSERT_EQ(a[i], b[i]) << "pre-cutover data must be untouched";
  }
  for (int64_t i = cut * per_step; i < base.num_steps() * per_step; ++i) {
    ASSERT_FLOAT_EQ(a[i], 2.0f * b[i] + 5.0f);
  }
}

TEST_F(DriftTransformTest, RecalibrationTouchesOnlyTheChosenFraction) {
  data::TrafficDataset base = data::GenerateSyntheticWorld(WorldConfig());
  const int64_t cut = base.num_steps() / 2;
  data::TrafficDataset drifted =
      data::ApplySensorRecalibration(base, cut, 0.5, 3.0, 0.0, 7);
  int64_t changed_nodes = 0;
  for (int64_t v = 0; v < kNodes; ++v) {
    bool changed = false;
    for (int64_t t_i = cut; t_i < base.num_steps(); ++t_i) {
      const int64_t at = (t_i * kNodes + v) * kFeatures;
      if (drifted.signals.data()[at] != base.signals.data()[at]) {
        changed = true;
      }
    }
    changed_nodes += changed ? 1 : 0;
  }
  EXPECT_EQ(changed_nodes, kNodes / 2);
}

TEST_F(DriftTransformTest, SeasonalShiftRampsLinearlyThenHolds) {
  data::TrafficDataset base = data::GenerateSyntheticWorld(WorldConfig());
  const int64_t cut = base.num_steps() / 2;
  const int64_t ramp = kStepsPerDay;
  data::TrafficDataset drifted =
      data::ApplySeasonalShift(base, cut, 1.0, ramp);
  const int64_t per_step = kNodes * kFeatures;
  const float* b = base.signals.data();
  const float* a = drifted.signals.data();
  for (int64_t i = 0; i < cut * per_step; ++i) {
    ASSERT_EQ(a[i], b[i]);
  }
  // Mid-ramp scale is fractional; post-ramp it holds at 1 + amplitude.
  const int64_t mid = cut + ramp / 2 - 1;
  const float mid_expected =
      1.0f + static_cast<float>(ramp / 2) / static_cast<float>(ramp);
  EXPECT_FLOAT_EQ(a[mid * per_step], b[mid * per_step] * mid_expected);
  const int64_t after = cut + 2 * ramp;
  EXPECT_FLOAT_EQ(a[after * per_step], b[after * per_step] * 2.0f);
}

TEST_F(DriftTransformTest, AttachNewSensorsGrowsGraphAndMirrorsDonors) {
  data::TrafficDataset base = data::GenerateSyntheticWorld(WorldConfig());
  data::TrafficDataset grown = data::AttachNewSensors(base, 2, 9);
  ASSERT_EQ(grown.num_nodes(), kNodes + 2);
  ASSERT_EQ(grown.num_steps(), base.num_steps());
  ASSERT_NE(grown.graph, nullptr);
  EXPECT_EQ(grown.graph->num_nodes(), kNodes + 2);
  EXPECT_EQ(grown.graph->edges().size(), base.graph->edges().size() + 2);
  EXPECT_EQ(grown.graph->coords().size(), static_cast<size_t>(kNodes + 2));
  // Original sensors read identically; the transform only adds.
  for (int64_t t_i = 0; t_i < base.num_steps(); ++t_i) {
    for (int64_t v = 0; v < kNodes; ++v) {
      ASSERT_EQ(
          grown.signals.data()[(t_i * (kNodes + 2) + v) * kFeatures],
          base.signals.data()[(t_i * kNodes + v) * kFeatures]);
    }
  }
  // New sensors carry plausible (noisy-copy) traffic, not zeros.
  double new_sum = 0.0;
  for (int64_t t_i = 0; t_i < base.num_steps(); ++t_i) {
    new_sum += grown.signals.data()[(t_i * (kNodes + 2) + kNodes) * kFeatures];
  }
  EXPECT_GT(new_sum, 0.0);
  // Deterministic in the seed.
  data::TrafficDataset again = data::AttachNewSensors(base, 2, 9);
  EXPECT_EQ(0, std::memcmp(grown.signals.data(), again.signals.data(),
                           static_cast<size_t>(grown.signals.size()) *
                               sizeof(float)));
}

}  // namespace
}  // namespace sstban::streaming
