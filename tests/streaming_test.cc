// Unit coverage for src/streaming: the ingest boundary (value/timestamp/
// geometry policy, ring continuity), CUSUM drift
// detection with hysteresis, the label-free online adapter's checkpointed
// resume, and shadow-gated promotion with rollback.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "streaming/drift_detector.h"
#include "streaming/online_adapter.h"
#include "streaming/promotion.h"
#include "streaming/stream_ingestor.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sstban::streaming {
namespace {

namespace t = ::sstban::tensor;
namespace ag = ::sstban::autograd;
namespace fs = std::filesystem;
namespace model_ns = ::sstban::sstban;

constexpr int64_t kNodes = 4;
constexpr int64_t kFeatures = 1;
constexpr int64_t kSteps = 6;
constexpr int64_t kStepsPerDay = 12;

// Every suite in this file arms its own failpoints; scrub any schedule the
// CI fault matrix put in the environment so assertions stay deterministic.
class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override { core::FailPoint::ClearAll(); }
  void TearDown() override { core::FailPoint::ClearAll(); }
};
using StreamIngestorTest = StreamingTest;
using DriftDetectorTest = StreamingTest;
using OnlineAdapterTest = StreamingTest;
using PromotionTest = StreamingTest;

StreamIngestorOptions TinyIngestOptions() {
  StreamIngestorOptions options;
  options.num_nodes = kNodes;
  options.num_features = kFeatures;
  options.input_len = kSteps;
  options.output_len = kSteps;
  options.steps_per_day = kStepsPerDay;
  return options;
}

t::Tensor FlatSlice(float value) {
  return t::Tensor::Full(t::Shape{kNodes, kFeatures}, value);
}

// -- StreamIngestor ----------------------------------------------------------

TEST_F(StreamIngestorTest, AcceptsSequentialSlicesAndAdvancesClock) {
  StreamIngestor ingestor(TinyIngestOptions());
  EXPECT_FALSE(ingestor.started());
  for (int64_t s = 7; s < 7 + kSteps; ++s) {
    ASSERT_TRUE(ingestor.Append(FlatSlice(1.0f), s).ok());
  }
  EXPECT_TRUE(ingestor.started());
  EXPECT_EQ(ingestor.size(), kSteps);
  EXPECT_EQ(ingestor.next_step(), 7 + kSteps);
  EXPECT_EQ(ingestor.accepted(), kSteps);

  int64_t first_step = -1;
  auto window = ingestor.LatestWindow(&first_step);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(first_step, 7);
  EXPECT_EQ(window.value().dim(0), kSteps);
}

TEST_F(StreamIngestorTest, RejectsGeometryChangeUntouched) {
  StreamIngestor ingestor(TinyIngestOptions());
  ASSERT_TRUE(ingestor.Append(FlatSlice(1.0f), 0).ok());

  // The growing-city shape: one extra sensor.
  t::Tensor grown = t::Tensor::Full(t::Shape{kNodes + 1, kFeatures}, 1.0f);
  core::Status status = ingestor.Append(grown, 1);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(ingestor.rejected_geometry(), 1);
  EXPECT_EQ(ingestor.size(), 1);
  EXPECT_EQ(ingestor.next_step(), 1);  // clock untouched
  // The stream resumes where it left off.
  EXPECT_TRUE(ingestor.Append(FlatSlice(1.0f), 1).ok());
}

TEST_F(StreamIngestorTest, RejectsRegressedGappedAndNegativeTimestamps) {
  StreamIngestor ingestor(TinyIngestOptions());
  ASSERT_TRUE(ingestor.Append(FlatSlice(1.0f), 5).ok());

  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), 5).code(),
            core::StatusCode::kOutOfRange);  // repeat
  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), 4).code(),
            core::StatusCode::kOutOfRange);  // regression
  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), 8).code(),
            core::StatusCode::kOutOfRange);  // gap
  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), -1).code(),
            core::StatusCode::kOutOfRange);  // negative
  EXPECT_EQ(ingestor.rejected_timestamps(), 4);
  EXPECT_EQ(ingestor.size(), 1);
  EXPECT_TRUE(ingestor.Append(FlatSlice(1.0f), 6).ok());
}

TEST_F(StreamIngestorTest, LargestStepIsOutOfRangeAndCommitsNothing) {
  constexpr int64_t kLast = std::numeric_limits<int64_t>::max();
  StreamIngestor ingestor(TinyIngestOptions());
  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), kLast).code(),
            core::StatusCode::kOutOfRange);
  EXPECT_EQ(ingestor.rejected_timestamps(), 1);
  EXPECT_EQ(ingestor.accepted(), 0);
  EXPECT_EQ(ingestor.size(), 0);
  EXPECT_FALSE(ingestor.started());
  EXPECT_EQ(ingestor.next_step(), 0);
  // The step before it may still pin the clock, which then stops there.
  ASSERT_TRUE(ingestor.Append(FlatSlice(1.0f), kLast - 1).ok());
  EXPECT_EQ(ingestor.next_step(), kLast);
  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), kLast).code(),
            core::StatusCode::kOutOfRange);
  EXPECT_EQ(ingestor.size(), 1);
}

TEST_F(StreamIngestorTest, StrictChannelNaNRejectsTheSliceAndRestartsTheRing) {
  StreamIngestor ingestor(TinyIngestOptions());  // strict everywhere
  core::Rng rng(11);
  for (int64_t s = 0; s < 2 * kSteps; ++s) {
    ASSERT_TRUE(
        ingestor
            .Append(t::Tensor::RandomNormal(t::Shape{kNodes, kFeatures}, rng,
                                            10.0f, 1.0f),
                    s)
            .ok());
  }
  t::Tensor poisoned = FlatSlice(10.0f);
  poisoned.data()[2] = std::numeric_limits<float>::quiet_NaN();
  core::Status status = ingestor.Append(poisoned, 2 * kSteps);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(ingestor.rejected_values(), 1);

  // The bad reading consumed its timestamp (the feed keeps flowing) but
  // punched a hole: retained history restarted, so no window until P fresh
  // contiguous slices arrive.
  EXPECT_EQ(ingestor.next_step(), 2 * kSteps + 1);
  EXPECT_EQ(ingestor.size(), 0);
  EXPECT_EQ(ingestor.LatestWindow(nullptr).status().code(),
            core::StatusCode::kNotFound);
  for (int64_t s = 2 * kSteps + 1; s < 3 * kSteps + 1; ++s) {
    ASSERT_TRUE(ingestor.Append(FlatSlice(10.0f), s).ok());
  }
  EXPECT_TRUE(ingestor.LatestWindow(nullptr).ok());
}

TEST_F(StreamIngestorTest, DegradableChannelScrubsAndKeepsTheSlice) {
  StreamIngestorOptions options = TinyIngestOptions();
  options.sanitizer.degradable_channels = {0};
  StreamIngestor ingestor(options);
  for (int64_t s = 0; s < kSteps; ++s) {
    ASSERT_TRUE(ingestor.Append(FlatSlice(4.0f), s).ok());
  }

  t::Tensor partial = FlatSlice(4.0f);
  partial.data()[1] = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(ingestor.Append(partial, kSteps).ok());
  EXPECT_EQ(ingestor.scrubbed_positions(), 1);
  EXPECT_EQ(ingestor.size(), kSteps + 1);  // slice kept, continuity intact
}

TEST_F(StreamIngestorTest, RingWrapsAndSnapshotKeepsCalendarConsistent) {
  StreamIngestor ingestor(TinyIngestOptions());
  const int64_t capacity = ingestor.capacity();
  EXPECT_EQ(capacity, 8 * (kSteps + kSteps));  // two days is less here
  const int64_t start = kStepsPerDay + 3;  // tod 3, dow 1 at stream start
  const int64_t total = 2 * capacity + kSteps;  // wraps the ring twice
  for (int64_t i = 0; i < total; ++i) {
    ASSERT_TRUE(
        ingestor.Append(FlatSlice(static_cast<float>(i)), start + i).ok());
  }
  EXPECT_EQ(ingestor.size(), capacity);

  auto snapshot = ingestor.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const data::TrafficDataset& dataset = snapshot.value();
  ASSERT_EQ(dataset.num_steps(), capacity);
  for (int64_t i = 0; i < dataset.num_steps(); ++i) {
    const int64_t step = start + total - capacity + i;
    EXPECT_FLOAT_EQ(dataset.signals.data()[i * kNodes * kFeatures],
                    static_cast<float>(total - capacity + i));
    EXPECT_EQ(dataset.time_of_day[i], step % kStepsPerDay);
    EXPECT_EQ(dataset.day_of_week[i], (step / kStepsPerDay) % 7);
  }
}

TEST_F(StreamIngestorTest, IngestAppendFailpointPropagatesAndLeavesNoTrace) {
  StreamIngestor ingestor(TinyIngestOptions());
  ASSERT_TRUE(
      core::FailPoint::Set("ingest_append", "error(kUnavailable)@1").ok());
  EXPECT_EQ(ingestor.Append(FlatSlice(1.0f), 0).code(),
            core::StatusCode::kUnavailable);
  EXPECT_EQ(ingestor.size(), 0);
  EXPECT_EQ(ingestor.accepted(), 0);
  EXPECT_FALSE(ingestor.started());
  EXPECT_TRUE(ingestor.Append(FlatSlice(1.0f), 0).ok());
}

// -- DriftDetector -----------------------------------------------------------

TEST_F(DriftDetectorTest, StableUnderBaselineNoise) {
  DriftDetector detector;
  core::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    DriftState state = detector.Observe(1.0 + 0.1 * rng.NextGaussian());
    EXPECT_NE(state, DriftState::kDrift);
  }
  EXPECT_EQ(detector.state(), DriftState::kStable);
  EXPECT_NEAR(detector.baseline_mean(), 1.0, 0.1);
}

TEST_F(DriftDetectorTest, SingleSpikeEvenInfiniteDoesNotConfirm) {
  DriftDetector detector;
  core::Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    detector.Observe(1.0 + 0.1 * rng.NextGaussian());
  }
  // One absurd error — a breaker trip, one batch served by the fallback
  // chain. Winsorization caps its contribution below the trip threshold,
  // and the hysteresis streak cannot build from one observation.
  detector.Observe(std::numeric_limits<double>::infinity());
  EXPECT_NE(detector.state(), DriftState::kDrift);
  for (int i = 0; i < 20; ++i) {
    detector.Observe(1.0 + 0.1 * rng.NextGaussian());
  }
  EXPECT_EQ(detector.state(), DriftState::kStable);
}

TEST_F(DriftDetectorTest, SustainedShiftConfirmsAndLatches) {
  DriftDetector detector;
  core::Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    detector.Observe(1.0 + 0.1 * rng.NextGaussian());
  }
  DriftState state = DriftState::kStable;
  int to_confirm = 0;
  while (state != DriftState::kDrift && to_confirm < 200) {
    state = detector.Observe(3.0 + 0.1 * rng.NextGaussian());
    ++to_confirm;
  }
  EXPECT_EQ(state, DriftState::kDrift);
  EXPECT_GE(detector.observations_to_confirm(), DriftDetector::kConfirm);
  // Latched: even good errors do not clear a confirmed drift.
  EXPECT_EQ(detector.Observe(1.0), DriftState::kDrift);

  detector.Reset();
  EXPECT_EQ(detector.state(), DriftState::kCooldown);
  for (int i = 0; i < 60; ++i) {
    detector.Observe(3.0 + 0.1 * rng.NextGaussian());
  }
  // After cooldown the baseline re-learned at the new level: stable again.
  EXPECT_EQ(detector.state(), DriftState::kStable);
}

// A failed shadow score while the baseline warms is discarded: it neither
// counts toward the warmup nor moves the frozen estimate, so a later shift is
// detected exactly as on a clean warmup.
TEST_F(DriftDetectorTest, NonFiniteErrorDuringWarmupLeavesBaselineAlone) {
  core::Rng rng(9);
  DriftDetector clean;
  DriftDetector faulted;
  for (int64_t i = 0; i < DriftDetector::kWarmup; ++i) {
    if (i == 3) {
      EXPECT_EQ(faulted.Observe(std::numeric_limits<double>::infinity()),
                DriftState::kWarmup);
    }
    if (i == 9) {
      EXPECT_EQ(faulted.Observe(std::numeric_limits<double>::quiet_NaN()),
                DriftState::kWarmup);
    }
    const double error = 100.0 + 5.0 * rng.NextGaussian();
    clean.Observe(error);
    faulted.Observe(error);
  }
  ASSERT_EQ(clean.state(), DriftState::kStable);
  EXPECT_EQ(faulted.state(), DriftState::kStable);
  EXPECT_EQ(faulted.baseline_mean(), clean.baseline_mean());
  EXPECT_EQ(faulted.baseline_stddev(), clean.baseline_stddev());

  for (int i = 0; i < 200 && clean.state() != DriftState::kDrift; ++i) {
    const double error = 110.0 + 5.0 * rng.NextGaussian();
    clean.Observe(error);
    faulted.Observe(error);
  }
  ASSERT_EQ(clean.state(), DriftState::kDrift);
  EXPECT_EQ(faulted.state(), DriftState::kDrift);
  EXPECT_EQ(faulted.observations_to_confirm(), clean.observations_to_confirm());
}

// -- OnlineAdapter -----------------------------------------------------------

model_ns::SstbanConfig TinyModelConfig(uint64_t seed = 1) {
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

std::shared_ptr<data::TrafficDataset> TinyWorld(uint64_t seed = 50) {
  data::SyntheticWorldConfig config;
  config.num_nodes = kNodes;
  config.num_corridors = 2;
  config.steps_per_day = kStepsPerDay;
  config.num_days = 4;
  config.seed = seed;
  return std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(config));
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<int64_t> FirstIndices(int64_t n) {
  std::vector<int64_t> indices(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;
  return indices;
}

bool ParamsBitwiseEqual(const training::TrafficModel& a,
                        const training::TrafficModel& b) {
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const t::Tensor& ta = pa[i].second.value();
    const t::Tensor& tb = pb[i].second.value();
    if (!(ta.shape() == tb.shape())) return false;
    if (std::memcmp(ta.data(), tb.data(),
                    static_cast<size_t>(ta.size()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST_F(OnlineAdapterTest, RunsLabelFreeStepsAndReportsLosses) {
  auto dataset = TinyWorld();
  data::WindowDataset windows(dataset, kSteps, kSteps);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanModel model(TinyModelConfig());

  OnlineAdapterOptions options;
  options.num_steps = 4;
  auto report = OnlineAdapter(options).Adapt(&model, windows,
                                             FirstIndices(10), normalizer);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().steps_run, 4);
  EXPECT_EQ(report.value().step_loss.size(), 4u);
  for (double loss : report.value().step_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  EXPECT_TRUE(report.value().resumed_from.empty());
}

TEST_F(OnlineAdapterTest, InterruptedRoundResumesBitwiseIdentical) {
  auto dataset = TinyWorld();
  data::WindowDataset windows(dataset, kSteps, kSteps);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);

  // A round of one and a half checkpoint intervals: one checkpoint to
  // resume from, steps after it to replay.
  constexpr int64_t kEvery = OnlineAdapter::kCheckpointEvery;
  OnlineAdapterOptions options;
  options.num_steps = kEvery + kEvery / 2;

  // Reference: one uninterrupted round.
  model_ns::SstbanModel reference(TinyModelConfig(9));
  options.checkpoint_dir = FreshDir("adapt_ref");
  ASSERT_TRUE(OnlineAdapter(options)
                  .Adapt(&reference, windows, FirstIndices(12), normalizer)
                  .ok());

  // Interrupted: an injected fault kills the round in its second step after
  // the first checkpoint.
  model_ns::SstbanModel interrupted(TinyModelConfig(9));
  options.checkpoint_dir = FreshDir("adapt_cut");
  ASSERT_TRUE(core::FailPoint::Set("adapt_step", "error(kUnavailable)@" +
                                                     std::to_string(kEvery + 2))
                  .ok());
  auto cut = OnlineAdapter(options).Adapt(&interrupted, windows,
                                          FirstIndices(12), normalizer);
  EXPECT_EQ(cut.status().code(), core::StatusCode::kUnavailable);
  core::FailPoint::ClearAll();

  // Resume in a *fresh* model instance (a restarted process would have one):
  // everything flows from the checkpoint, nothing from the dead round.
  model_ns::SstbanModel resumed(TinyModelConfig(9));
  auto report = OnlineAdapter(options).Adapt(&resumed, windows,
                                             FirstIndices(12), normalizer);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().start_step, kEvery);
  EXPECT_FALSE(report.value().resumed_from.empty());
  EXPECT_TRUE(ParamsBitwiseEqual(reference, resumed))
      << "resumed weights diverged from the uninterrupted round";
}

// A checkpoint of another round is ignored, whether it covers another
// window set or runs more steps than this round: the round starts at step 0
// and ends bitwise equal to a fresh one.
TEST_F(OnlineAdapterTest, IncompatibleCheckpointStartsFresh) {
  auto dataset = TinyWorld();
  data::WindowDataset windows(dataset, kSteps, kSteps);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);

  OnlineAdapterOptions options;
  options.num_steps = 4;
  model_ns::SstbanModel fresh(TinyModelConfig(9));
  ASSERT_TRUE(OnlineAdapter(options)
                  .Adapt(&fresh, windows, FirstIndices(12), normalizer)
                  .ok());

  struct StaleRound {
    int64_t num_windows;
    int64_t num_steps;
  };
  for (const StaleRound& stale : {StaleRound{10, 4}, StaleRound{12, 6}}) {
    OnlineAdapterOptions stale_options = options;
    stale_options.num_steps = stale.num_steps;
    stale_options.checkpoint_dir = FreshDir("adapt_stale");
    model_ns::SstbanModel previous(TinyModelConfig(9));
    ASSERT_TRUE(OnlineAdapter(stale_options)
                    .Adapt(&previous, windows, FirstIndices(stale.num_windows),
                           normalizer)
                    .ok());

    options.checkpoint_dir = stale_options.checkpoint_dir;
    model_ns::SstbanModel model(TinyModelConfig(9));
    auto report = OnlineAdapter(options).Adapt(&model, windows,
                                               FirstIndices(12), normalizer);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().start_step, 0) << stale.num_windows;
    EXPECT_TRUE(report.value().resumed_from.empty());
    EXPECT_EQ(report.value().steps_run, 4);
    EXPECT_TRUE(ParamsBitwiseEqual(fresh, model))
        << "a stale checkpoint of " << stale.num_windows << " windows and "
        << stale.num_steps << " steps leaked into the round";
  }
}

TEST_F(OnlineAdapterTest, CheckpointWriteFaultIsSurvivable) {
  auto dataset = TinyWorld();
  data::WindowDataset windows(dataset, kSteps, kSteps);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanModel model(TinyModelConfig());

  OnlineAdapterOptions options;
  options.num_steps = 4;
  options.checkpoint_dir = FreshDir("adapt_ckpt_fault");
  // Every checkpoint write fails; the round must still complete — the
  // checkpoint layer is a safety net, not a dependency.
  ASSERT_TRUE(
      core::FailPoint::Set("adapt_ckpt_write", "error(kIoError)").ok());
  auto report =
      OnlineAdapter(options).Adapt(&model, windows, FirstIndices(10),
                                   normalizer);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().steps_run, 4);
}

// A trainable model with no label-free objective cannot adapt online.
class LabeledOnlyModel : public training::TrafficModel {
 public:
  LabeledOnlyModel() {
    bias_ = RegisterParameter("bias", t::Tensor::Zeros(t::Shape{1}));
  }
  ag::Variable Predict(const t::Tensor& x_norm,
                       const data::Batch& batch) override {
    return ag::Variable(t::Tensor::Full(
        t::Shape{x_norm.dim(0), batch.output_len(), x_norm.dim(2),
                 x_norm.dim(3)},
        bias_.value().data()[0]));
  }
  std::string name() const override { return "LabeledOnly"; }

 private:
  ag::Variable bias_;
};

TEST_F(OnlineAdapterTest, ModelWithoutSelfSupervisedObjectiveIsRejected) {
  auto dataset = TinyWorld();
  data::WindowDataset windows(dataset, kSteps, kSteps);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  LabeledOnlyModel model;
  auto report = OnlineAdapter(OnlineAdapterOptions{}).Adapt(
      &model, windows, FirstIndices(8), normalizer);
  EXPECT_EQ(report.status().code(), core::StatusCode::kFailedPrecondition);
}

// -- ShadowScore / PromotionGate --------------------------------------------

// Forecasts a constant everywhere, so the shadow MAE is exactly
// |bias - truth| and promotion arithmetic is fully controlled by the test.
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

struct PromotionRig {
  std::shared_ptr<data::TrafficDataset> dataset;
  std::unique_ptr<data::WindowDataset> windows;
  data::Normalizer normalizer =
      data::Normalizer::FromMoments({0.0f}, {1.0f});  // denorm = identity
  std::unique_ptr<serving::ModelRegistry> registry;
  serving::ModelRegistry::ModelFactory factory;
  std::vector<int64_t> shadow_indices = {0, 1, 2};
};

// Truth is constant 3.0 everywhere: BiasModel(b) scores MAE |b - 3|.
PromotionRig MakePromotionRig() {
  PromotionRig rig;
  data::TrafficDataset dataset;
  dataset.name = "const";
  dataset.steps_per_day = kStepsPerDay;
  const int64_t steps = 3 * kSteps;
  dataset.signals =
      t::Tensor::Full(t::Shape{steps, kNodes, kFeatures}, 3.0f);
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
  rig.registry->Install(std::make_unique<BiasModel>(1.0f));  // MAE 2.0
  return rig;
}

float ServedBias(const serving::ModelRegistry& registry) {
  auto served = registry.current();
  return static_cast<const BiasModel*>(served->model.get())->bias();
}

TEST_F(PromotionTest, ShadowScoreIsServingMae) {
  PromotionRig rig = MakePromotionRig();
  BiasModel model(2.0f);
  auto score =
      ShadowScore(&model, *rig.windows, rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(score.value(), 1.0, 1e-5);  // |2 - 3|
}

TEST_F(PromotionTest, BetterCandidatePromotesWorseCandidateRefused) {
  PromotionRig rig = MakePromotionRig();
  PromotionGate gate(rig.registry.get(), rig.factory);

  auto win = gate.TryPromote(std::make_unique<BiasModel>(2.5f), *rig.windows,
                             rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(win.ok());
  EXPECT_TRUE(win.value().promoted);
  EXPECT_NEAR(win.value().candidate_score, 0.5, 1e-5);
  EXPECT_NEAR(win.value().incumbent_score, 2.0, 1e-5);
  EXPECT_EQ(rig.registry->current_version(), 2);
  EXPECT_EQ(rig.registry->current()->source, "online-adapt");
  EXPECT_FLOAT_EQ(ServedBias(*rig.registry), 2.5f);

  auto lose = gate.TryPromote(std::make_unique<BiasModel>(-4.0f),
                              *rig.windows, rig.shadow_indices,
                              rig.normalizer);
  ASSERT_TRUE(lose.ok());
  EXPECT_FALSE(lose.value().promoted);
  EXPECT_EQ(rig.registry->current_version(), 2);  // incumbent intact
  EXPECT_FLOAT_EQ(ServedBias(*rig.registry), 2.5f);
  EXPECT_EQ(gate.promotions(), 1);
  EXPECT_EQ(gate.refusals(), 1);
}

TEST_F(PromotionTest, ShadowEvalFaultRefusesPromotion) {
  PromotionRig rig = MakePromotionRig();
  PromotionGate gate(rig.registry.get(), rig.factory);
  // The first Score call is the candidate's: its fault must refuse, not
  // promote past an unmeasured comparison.
  ASSERT_TRUE(
      core::FailPoint::Set("shadow_eval", "error(kUnavailable)@1").ok());
  auto decision =
      gate.TryPromote(std::make_unique<BiasModel>(3.0f), *rig.windows,
                      rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision.value().promoted);
  EXPECT_NE(decision.value().reason.find("unscorable"), std::string::npos);
  EXPECT_EQ(rig.registry->current_version(), 1);
}

TEST_F(PromotionTest, SwapFaultLeavesIncumbentInstalled) {
  PromotionRig rig = MakePromotionRig();
  PromotionGate gate(rig.registry.get(), rig.factory);
  ASSERT_TRUE(
      core::FailPoint::Set("promote_swap", "error(kUnavailable)@1").ok());
  auto decision =
      gate.TryPromote(std::make_unique<BiasModel>(3.0f), *rig.windows,
                      rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision.value().promoted);
  EXPECT_NE(decision.value().reason.find("swap fault"), std::string::npos);
  EXPECT_EQ(rig.registry->current_version(), 1);
  EXPECT_FLOAT_EQ(ServedBias(*rig.registry), 1.0f);

  // The same candidate would have won; with the fault cleared it does.
  core::FailPoint::ClearAll();
  auto retry =
      gate.TryPromote(std::make_unique<BiasModel>(3.0f), *rig.windows,
                      rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().promoted);
}

TEST_F(PromotionTest, SustainedLiveRegressionRollsBackPromotedWeights) {
  PromotionRig rig = MakePromotionRig();
  PromotionGate gate(rig.registry.get(), rig.factory);
  ASSERT_TRUE(gate.TryPromote(std::make_unique<BiasModel>(2.5f), *rig.windows,
                              rig.shadow_indices, rig.normalizer)
                  .value()
                  .promoted);
  ASSERT_TRUE(gate.monitoring());

  // Two bad observations with a good one between: streak resets, no rollback.
  EXPECT_FALSE(gate.ObserveLive(100.0));
  EXPECT_FALSE(gate.ObserveLive(0.4));
  EXPECT_FALSE(gate.ObserveLive(100.0));
  EXPECT_FALSE(gate.ObserveLive(100.0));
  EXPECT_EQ(gate.rollbacks(), 0);
  // The third consecutive regression trips the rollback.
  EXPECT_TRUE(gate.ObserveLive(100.0));
  EXPECT_EQ(gate.rollbacks(), 1);
  EXPECT_FALSE(gate.monitoring());
  EXPECT_EQ(rig.registry->current()->source, "rollback");
  EXPECT_EQ(rig.registry->current_version(), 3);  // a fresh version, not v1
  EXPECT_FLOAT_EQ(ServedBias(*rig.registry), 1.0f);  // pre-promotion weights
}

TEST_F(PromotionTest, ObserveLiveIsInertWithoutPromotion) {
  PromotionRig rig = MakePromotionRig();
  PromotionGate gate(rig.registry.get(), rig.factory);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(gate.ObserveLive(1e9));
  }
  EXPECT_EQ(gate.rollbacks(), 0);
}

TEST_F(PromotionTest, UnscorableIncumbentIsRecoveredFrom) {
  PromotionRig rig = MakePromotionRig();
  PromotionGate gate(rig.registry.get(), rig.factory);
  // Candidate scores on hit 1; the incumbent's scoring on hit 2 faults —
  // an incumbent that cannot be measured is treated as infinitely bad, so a
  // healthy candidate recovers the deployment.
  ASSERT_TRUE(
      core::FailPoint::Set("shadow_eval", "error(kUnavailable)@2").ok());
  auto decision =
      gate.TryPromote(std::make_unique<BiasModel>(3.0f), *rig.windows,
                      rig.shadow_indices, rig.normalizer);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision.value().promoted);
  EXPECT_TRUE(std::isinf(decision.value().incumbent_score));
}

TEST_F(PromotionTest, CloneWithWeightsCopiesWithoutAliasing) {
  auto factory = [] { return std::make_unique<BiasModel>(); };
  BiasModel source(7.0f);
  std::unique_ptr<training::TrafficModel> clone =
      CloneWithWeights(factory, source);
  EXPECT_FLOAT_EQ(static_cast<BiasModel*>(clone.get())->bias(), 7.0f);
  // Mutating the clone must not write through to the source.
  clone->NamedParameters()[0].second.mutable_value().data()[0] = -1.0f;
  EXPECT_FLOAT_EQ(source.bias(), 7.0f);
}

}  // namespace
}  // namespace sstban::streaming
