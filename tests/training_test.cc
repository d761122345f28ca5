#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "baselines/historical_average.h"
#include "core/cpu_features.h"
#include "core/rng.h"
#include "data/synthetic_world.h"
#include "nn/linear.h"
#include "optim/optimizer.h"
#include "simd_tiers.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"
#include "training/metrics.h"
#include "training/trainer.h"

namespace sstban::training {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

TEST(MetricsTest, KnownValues) {
  MetricsAccumulator acc;
  t::Tensor pred = t::Tensor::FromVector(t::Shape{4}, {1, 2, 3, 4});
  t::Tensor truth = t::Tensor::FromVector(t::Shape{4}, {2, 2, 1, 8});
  acc.Add(pred, truth);
  Metrics m = acc.Compute();
  EXPECT_FLOAT_EQ(m.mae, (1 + 0 + 2 + 4) / 4.0);
  EXPECT_FLOAT_EQ(m.rmse, std::sqrt((1 + 0 + 4 + 16) / 4.0));
  EXPECT_NEAR(m.mape, 100.0 * (0.5 + 0.0 + 2.0 + 0.5) / 4.0, 1e-3);
}

TEST(MetricsTest, MapeSkipsNearZeroTruth) {
  MetricsAccumulator acc(/*mape_threshold=*/0.5);
  t::Tensor pred = t::Tensor::FromVector(t::Shape{2}, {1, 5});
  t::Tensor truth = t::Tensor::FromVector(t::Shape{2}, {0.01f, 4});
  acc.Add(pred, truth);
  Metrics m = acc.Compute();
  EXPECT_NEAR(m.mape, 100.0 * 0.25, 1e-3);  // only the second element counts
}

TEST(MetricsTest, AccumulatesAcrossBatches) {
  MetricsAccumulator acc;
  acc.Add(t::Tensor::FromVector(t::Shape{1}, {1}),
          t::Tensor::FromVector(t::Shape{1}, {2}));
  acc.Add(t::Tensor::FromVector(t::Shape{1}, {5}),
          t::Tensor::FromVector(t::Shape{1}, {2}));
  Metrics m = acc.Compute();
  EXPECT_FLOAT_EQ(m.mae, 2.0);
  EXPECT_EQ(acc.count(), 2);
}

TEST(MetricsTest, ToStringFormat) {
  MetricsAccumulator acc;
  acc.Add(t::Tensor::FromVector(t::Shape{1}, {1}),
          t::Tensor::FromVector(t::Shape{1}, {2}));
  EXPECT_NE(acc.Compute().ToString().find("MAE"), std::string::npos);
}

// A trivially learnable model: predicts a learned constant per output cell.
class ConstantModel : public TrafficModel {
 public:
  ConstantModel(int64_t q, int64_t n, int64_t c) {
    bias_ = RegisterParameter("bias", t::Tensor::Zeros(t::Shape{q, n, c}));
  }
  ag::Variable Predict(const t::Tensor& x_norm, const data::Batch& batch) override {
    (void)batch;
    int64_t b = x_norm.dim(0);
    ag::Variable zeros(t::Tensor::Zeros(
        t::Shape{b, bias_.dim(0), bias_.dim(1), bias_.dim(2)}));
    return ag::Add(zeros, ag::Reshape(bias_, t::Shape{1, bias_.dim(0),
                                                      bias_.dim(1), bias_.dim(2)}));
  }
  std::string name() const override { return "Constant"; }

 private:
  ag::Variable bias_;
};

std::shared_ptr<data::TrafficDataset> TinyWorld() {
  data::SyntheticWorldConfig config;
  config.num_nodes = 4;
  config.num_corridors = 2;
  config.steps_per_day = 24;
  config.num_days = 6;
  config.seed = 12;
  return std::make_shared<data::TrafficDataset>(GenerateSyntheticWorld(config));
}

TEST(TrainerTest, TrainsConstantModelTowardDataMean) {
  auto ds = TinyWorld();
  data::WindowDataset windows(ds, 6, 4);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer norm = data::Normalizer::Fit(ds->signals);
  ConstantModel model(4, 4, 1);
  TrainerConfig config;
  config.max_epochs = 12;
  config.batch_size = 16;
  config.learning_rate = 0.1f;
  Trainer trainer(config);
  TrainStats stats = trainer.Train(&model, windows, split, norm);
  EXPECT_GT(stats.epochs_run, 0);
  EXPECT_GT(stats.total_train_seconds, 0.0);
  EXPECT_FALSE(stats.epoch_train_loss.empty());
  // Loss decreased over training.
  EXPECT_LT(stats.epoch_train_loss.back(), stats.epoch_train_loss.front());
}

TEST(TrainerTest, EarlyStoppingBoundsEpochs) {
  auto ds = TinyWorld();
  data::WindowDataset windows(ds, 6, 4);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer norm = data::Normalizer::Fit(ds->signals);
  ConstantModel model(4, 4, 1);
  TrainerConfig config;
  config.max_epochs = 100;
  config.patience = 2;
  config.batch_size = 32;
  config.learning_rate = 0.5f;  // fast convergence -> early stop triggers
  Trainer trainer(config);
  TrainStats stats = trainer.Train(&model, windows, split, norm);
  EXPECT_LT(stats.epochs_run, 100);
}

TEST(TrainerTest, NonTrainableModelUsesFitPath) {
  auto ds = TinyWorld();
  data::WindowDataset windows(ds, 6, 4);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer norm = data::Normalizer::Fit(ds->signals);
  baselines::HistoricalAverage ha;
  Trainer trainer(TrainerConfig{});
  TrainStats stats = trainer.Train(&ha, windows, split, norm);
  EXPECT_EQ(stats.epochs_run, 1);
  EXPECT_GT(stats.best_val_mae, 0.0);
}

TEST(EvaluateTest, PerHorizonMetricsHaveExpectedLength) {
  auto ds = TinyWorld();
  data::WindowDataset windows(ds, 6, 4);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer norm = data::Normalizer::Fit(ds->signals);
  baselines::HistoricalAverage ha;
  EvalResult result =
      Evaluate(&ha, windows, split.test, norm, 8, /*per_horizon=*/true);
  EXPECT_EQ(result.per_horizon.size(), 4u);
  EXPECT_GT(result.overall.mae, 0.0);
  // Long-horizon error should not be below the 1-step error for a
  // persistence-style predictor on a mean-reverting daily cycle.
  EXPECT_GE(result.per_horizon.back().mae, 0.5 * result.per_horizon.front().mae);
}

TEST(EvaluateTest, MetricsAreDenormalized) {
  auto ds = TinyWorld();
  data::WindowDataset windows(ds, 6, 4);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer norm = data::Normalizer::Fit(ds->signals);
  baselines::HistoricalAverage ha;
  EvalResult result = Evaluate(&ha, windows, split.test, norm, 8);
  // The raw flow scale is in the hundreds; normalized errors would be ~1.
  EXPECT_GT(result.overall.mae, 5.0);
}

// -- RunBatchedInferenceMasked keep-mask validation ---------------------------

constexpr int64_t kStepsPerDay = 8;

model_ns::SstbanConfig SmallSstbanConfig(int64_t p, int64_t n) {
  model_ns::SstbanConfig config;
  config.num_nodes = n;
  config.input_len = p;
  config.output_len = p;
  config.num_features = 1;
  config.steps_per_day = kStepsPerDay;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.temporal_refs = 2;
  config.spatial_refs = 2;
  config.patch_len = 2;
  config.self_supervised = false;
  config.seed = 11;
  return config;
}

// A [B, P, N, 1] batch of pseudo-random signals with per-window calendar
// features, assembled as serving does.
data::Batch MakeBatch(int64_t b, int64_t p, int64_t n, uint64_t seed) {
  core::Rng rng(seed);
  data::Batch batch;
  batch.x = t::Tensor::RandomUniform(t::Shape{b, p, n, 1}, rng, -1.5f, 1.5f);
  batch.y = t::Tensor::Zeros(t::Shape{b, p, n, 1});
  for (int64_t i = 0; i < b; ++i) {
    AppendCalendarFeatures(/*first_step=*/3 + 5 * i, p, p, kStepsPerDay,
                           &batch);
  }
  return batch;
}

TEST(MaskedInferenceValidationTest, MismatchedKeepDimsAreRejected) {
  model_ns::SstbanConfig config = SmallSstbanConfig(4, 3);
  model_ns::SstbanModel model(config);
  data::Batch batch = MakeBatch(2, 4, 3, /*seed=*/1);
  data::Normalizer norm = data::Normalizer::Fit(batch.x);

  // Wrong in every dimension that matters: batch, window length, node count.
  for (const t::Shape& bad :
       {t::Shape{1, 4, 3}, t::Shape{2, 5, 3}, t::Shape{2, 4, 4},
        t::Shape{2, 4}}) {
    auto result = RunBatchedInferenceMasked(&model, norm, batch,
                                            t::Tensor::Ones(bad));
    EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument)
        << bad.ToString() << ": " << result.status().ToString();
  }

  // The matching mask still goes through.
  auto ok_result = RunBatchedInferenceMasked(
      &model, norm, batch, t::Tensor::Ones(t::Shape{2, 4, 3}));
  EXPECT_TRUE(ok_result.ok()) << ok_result.status().ToString();
}

// -- The item split -----------------------------------------------------------

void ExpectBitwise(const t::Tensor& a, const t::Tensor& b,
                   const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << what;
}

// A window's forecast must not depend on its batch-mates: each window of a
// B = 8 RunBatchedInference[Masked] call, and of the model's own B = 8
// forward, is the bits that window's B = 1 call gives, on every tier.
// P = 5 and N = 13 leave lane tails in the 8-wide kernels.
TEST(SplitInferenceTest, EachWindowMatchesItsOwnBatchOfOneOnEveryTier) {
  constexpr int64_t kP = 5, kN = 13, kB = 8;
  model_ns::SstbanModel model(SmallSstbanConfig(kP, kN));
  data::Batch batch = MakeBatch(kB, kP, kN, /*seed=*/29);
  data::Normalizer norm = data::Normalizer::Fit(batch.x);
  core::Rng rng(31);
  t::Tensor keep = t::Tensor::Ones(t::Shape{kB, kP, kN});
  for (int64_t i = 1; i < keep.size(); ++i) {
    if (rng.NextDouble() < 0.3) keep.data()[i] = 0.0f;
  }
  for (core::SimdLevel level : ::sstban::testing::AvailableLevels()) {
    ::sstban::testing::ScopedSimdLevel scoped(level);
    t::Tensor split = RunBatchedInference(&model, norm, batch);
    t::Tensor split_masked =
        RunBatchedInferenceMasked(&model, norm, batch, keep).value();
    t::Tensor whole, whole_masked;
    {
      ag::NoGradGuard no_grad;
      t::Tensor x_norm = norm.Transform(batch.x);
      whole = norm.InverseTransform(model.Predict(x_norm, batch).value());
      whole_masked = norm.InverseTransform(
          model.PredictMasked(x_norm, keep, batch).value());
    }
    for (int64_t b = 0; b < kB; ++b) {
      SCOPED_TRACE(std::string(core::SimdLevelName(level)) + " window " +
                   std::to_string(b));
      data::Batch item = batch.Item(b);
      t::Tensor alone = RunBatchedInference(&model, norm, item);
      t::Tensor alone_masked =
          RunBatchedInferenceMasked(&model, norm, item,
                                    t::Slice(keep, 0, b, 1))
              .value();
      ExpectBitwise(t::Slice(split, 0, b, 1), alone, "split, clean");
      ExpectBitwise(t::Slice(whole, 0, b, 1), alone, "B = 8 forward, clean");
      ExpectBitwise(t::Slice(split_masked, 0, b, 1), alone_masked,
                    "split, masked");
      ExpectBitwise(t::Slice(whole_masked, 0, b, 1), alone_masked,
                    "B = 8 forward, masked");
    }
  }
}

model_ns::SstbanConfig SelfSupervisedConfig() {
  model_ns::SstbanConfig config = SmallSstbanConfig(4, 5);
  config.self_supervised = true;
  config.mask_rate = 0.3;
  config.lambda = 0.2;
  return config;
}

// A split step draws every item's masks on the calling thread, in item
// order, so after K steps the mask stream stands where K whole-batch losses
// leave it, for both objectives.
TEST(TrainStepTest, MaskStreamAdvancesAsWholeBatchLossesAdvanceIt) {
  for (Objective objective :
       {Objective::kTraining, Objective::kSelfSupervised}) {
    model_ns::SstbanModel split(SelfSupervisedConfig());
    model_ns::SstbanModel whole(SelfSupervisedConfig());
    split.SetTraining(true);
    whole.SetTraining(true);
    optim::Adam adam(split.Parameters(), 1e-3f);
    for (int step = 0; step < 3; ++step) {
      data::Batch batch = MakeBatch(3, 4, 5, /*seed=*/40 + step);
      data::Normalizer norm = data::Normalizer::Fit(batch.x);
      ASSERT_TRUE(TrainStep(&split, &adam, norm, batch, objective).ok());
      t::Tensor x_norm = norm.Transform(batch.x);
      if (objective == Objective::kTraining) {
        whole.TrainingLoss(x_norm, norm.Transform(batch.y), batch);
      } else {
        whole.SelfSupervisedLoss(x_norm, batch);
      }
    }
    core::Rng::State got = split.TrainingRng()->SaveState();
    core::Rng::State want = whole.TrainingRng()->SaveState();
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.inc, want.inc);
    EXPECT_EQ(got.has_spare, want.has_spare);
  }
}

// The step's gradient is the whole batch's, up to the order of the sums:
// the items' gradients added in item order and scaled by 1/B, against one
// backward of the B-item loss under the same masks, both clipped at 5.
TEST(TrainStepTest, GradientIsTheWholeBatchGradient) {
  model_ns::SstbanModel split(SelfSupervisedConfig());
  model_ns::SstbanModel whole(SelfSupervisedConfig());
  split.SetTraining(true);
  whole.SetTraining(true);
  data::Batch batch = MakeBatch(4, 4, 5, /*seed=*/53);
  data::Normalizer norm = data::Normalizer::Fit(batch.x);
  optim::Adam adam(split.Parameters(), 1e-3f);
  core::StatusOr<float> loss =
      TrainStep(&split, &adam, norm, batch, Objective::kTraining);
  ASSERT_TRUE(loss.ok()) << loss.status().ToString();

  std::vector<ag::Variable> params = whole.Parameters();
  ag::Variable want = whole.TrainingLoss(norm.Transform(batch.x),
                                         norm.Transform(batch.y), batch);
  want.Backward();
  optim::ClipGradNorm(params, 5.0f);
  EXPECT_NEAR(loss.value(), want.item(), 1e-5f);
  const std::vector<ag::Variable>& got = adam.params();
  ASSERT_EQ(got.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_TRUE(got[i].has_grad()) << "parameter " << i;
    EXPECT_TRUE(t::AllClose(got[i].grad(), params[i].grad(), 1e-6f, 1e-4f))
        << "parameter " << i;
  }
}

// A model without the objective's loss fails the step before any parameter
// moves.
TEST(TrainStepTest, MissingObjectiveMovesNoParameter) {
  ConstantModel model(4, 4, 1);
  data::Batch batch = MakeBatch(2, 6, 4, /*seed=*/3);
  data::Normalizer norm = data::Normalizer::Fit(batch.x);
  optim::Adam adam(model.Parameters(), 0.1f);
  core::StatusOr<float> loss =
      TrainStep(&model, &adam, norm, batch, Objective::kSelfSupervised);
  EXPECT_EQ(loss.status().code(), core::StatusCode::kFailedPrecondition);
  for (float v : model.Parameters()[0].value().ToVector()) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace sstban::training
