#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "baselines/historical_average.h"
#include "core/rng.h"
#include "data/synthetic_world.h"
#include "nn/linear.h"
#include "sstban/config.h"
#include "sstban/model.h"
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

}  // namespace
}  // namespace sstban::training
