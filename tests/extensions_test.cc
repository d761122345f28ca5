// Tests for the components beyond the paper's core: checkpoint
// serialization, the ForecastService deployment wrapper, and SSTBAN's
// missing-data prediction path.

#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/rng.h"
#include "data/synthetic_world.h"
#include "nn/mlp.h"
#include "nn/serialization.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"
#include "training/trainer.h"

namespace sstban {
namespace {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

// -- Serialization -----------------------------------------------------------

TEST(SerializationTest, RoundTripRestoresExactValues) {
  core::Rng rng(1);
  nn::Mlp original({4, 8, 2}, rng);
  std::string path = ::testing::TempDir() + "/ckpt.bin";
  ASSERT_TRUE(nn::SaveParameters(original, path).ok());

  core::Rng rng2(999);  // different init
  nn::Mlp restored({4, 8, 2}, rng2);
  ASSERT_TRUE(nn::LoadParameters(&restored, path).ok());

  auto a = original.NamedParameters();
  auto b = restored.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(t::AllClose(a[i].second.value(), b[i].second.value(), 0, 0))
        << a[i].first;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsArchitectureMismatch) {
  core::Rng rng(2);
  nn::Mlp original({4, 8, 2}, rng);
  std::string path = ::testing::TempDir() + "/ckpt2.bin";
  ASSERT_TRUE(nn::SaveParameters(original, path).ok());
  nn::Mlp wrong_shape({4, 16, 2}, rng);
  EXPECT_FALSE(nn::LoadParameters(&wrong_shape, path).ok());
  nn::Mlp wrong_depth({4, 8, 8, 2}, rng);
  EXPECT_FALSE(nn::LoadParameters(&wrong_depth, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsGarbageFile) {
  std::string path = ::testing::TempDir() + "/garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a checkpoint at all", f);
  fclose(f);
  core::Rng rng(3);
  nn::Mlp model({2, 2}, rng);
  EXPECT_FALSE(nn::LoadParameters(&model, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsIoError) {
  core::Rng rng(4);
  nn::Mlp model({2, 2}, rng);
  auto status = nn::LoadParameters(&model, "/nonexistent/ckpt.bin");
  EXPECT_EQ(status.code(), core::StatusCode::kIoError);
}

TEST(SerializationTest, FullSstbanModelRoundTrip) {
  sstban::SstbanConfig config;
  config.num_nodes = 4;
  config.input_len = 6;
  config.output_len = 6;
  config.num_features = 1;
  config.steps_per_day = 12;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  sstban::SstbanModel a(config);
  std::string path = ::testing::TempDir() + "/sstban.bin";
  ASSERT_TRUE(nn::SaveParameters(a, path).ok());
  config.seed = 777;  // different init
  sstban::SstbanModel b(config);
  ASSERT_TRUE(nn::LoadParameters(&b, path).ok());
  // Identical weights -> identical predictions.
  data::Batch batch;
  core::Rng rng(5);
  batch.x = t::Tensor::RandomNormal(t::Shape{2, 6, 4, 1}, rng);
  batch.y = t::Tensor::Zeros(t::Shape{2, 6, 4, 1});
  for (int i = 0; i < 12; ++i) {
    batch.tod_in.push_back(i % 12);
    batch.dow_in.push_back(0);
    batch.tod_out.push_back(i % 12);
    batch.dow_out.push_back(0);
  }
  EXPECT_TRUE(t::AllClose(a.Predict(batch.x, batch).value(),
                          b.Predict(batch.x, batch).value(), 1e-6f, 1e-6f));
  std::remove(path.c_str());
}

// -- ForecastService -----------------------------------------------------

TEST(ForecastServiceTest, ProducesDenormalizedForecast) {
  data::SyntheticWorldConfig world;
  world.num_nodes = 4;
  world.num_corridors = 2;
  world.steps_per_day = 12;
  world.num_days = 6;
  world.seed = 50;
  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(world));
  data::Normalizer norm = data::Normalizer::Fit(dataset->signals);

  sstban::SstbanConfig config;
  config.num_nodes = 4;
  config.input_len = 6;
  config.output_len = 6;
  config.num_features = 1;
  config.steps_per_day = 12;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  sstban::SstbanModel model(config);

  training::ForecastService service(&model, norm, 6, 6, 12, /*num_nodes=*/4,
                                    /*num_features=*/1);
  tensor::Tensor recent = t::Slice(dataset->signals, 0, 30, 6);
  auto forecast = service.Forecast(recent, 30);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().shape(), t::Shape({6, 4, 1}));
  // Denormalized output should live on the raw flow scale (mean is far
  // from 0 where the z-scores would sit).
  EXPECT_GT(t::MeanAll(forecast.value()).item(), 1.0f);
}

TEST(ForecastServiceTest, RejectsBadShapes) {
  sstban::SstbanConfig config;
  config.num_nodes = 4;
  config.input_len = 6;
  config.output_len = 6;
  config.num_features = 1;
  config.steps_per_day = 12;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  sstban::SstbanModel model(config);
  training::ForecastService service(&model, data::Normalizer(), 6, 6, 12,
                                    /*num_nodes=*/4, /*num_features=*/1);
  auto result = service.Forecast(t::Tensor::Zeros(t::Shape{5, 4, 1}), 0);
  EXPECT_FALSE(result.ok());
  auto result2 = service.Forecast(t::Tensor::Zeros(t::Shape{6, 4, 1}), -3);
  EXPECT_FALSE(result2.ok());
}

TEST(ForecastServiceTest, RejectsWrongNodeOrFeatureCount) {
  sstban::SstbanConfig config;
  config.num_nodes = 4;
  config.input_len = 6;
  config.output_len = 6;
  config.num_features = 1;
  config.steps_per_day = 12;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  sstban::SstbanModel model(config);
  training::ForecastService service(&model, data::Normalizer(), 6, 6, 12,
                                    /*num_nodes=*/4, /*num_features=*/1);
  // Right rank and length, wrong node count: must name both shapes.
  auto result = service.Forecast(t::Tensor::Zeros(t::Shape{6, 5, 1}), 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("[6, 5, 1]"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("[6, 4, 1]"), std::string::npos)
      << result.status().message();
  // Wrong feature count is caught the same way.
  auto result2 = service.Forecast(t::Tensor::Zeros(t::Shape{6, 4, 2}), 0);
  ASSERT_FALSE(result2.ok());
  EXPECT_EQ(result2.status().code(), core::StatusCode::kInvalidArgument);
}

// -- SSTBAN extensions ------------------------------------------------------

TEST(SstbanExtensionsTest, PredictMaskedIgnoresMaskedPositions) {
  sstban::SstbanConfig config;
  config.num_nodes = 5;
  config.input_len = 8;
  config.output_len = 8;
  config.num_features = 1;
  config.steps_per_day = 12;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  sstban::SstbanModel model(config);
  data::Batch batch;
  core::Rng rng(9);
  batch.x = t::Tensor::RandomNormal(t::Shape{1, 8, 5, 1}, rng);
  batch.y = t::Tensor::Zeros(t::Shape{1, 8, 5, 1});
  for (int i = 0; i < 8; ++i) {
    batch.tod_in.push_back(i % 12);
    batch.dow_in.push_back(0);
    batch.tod_out.push_back((i + 8) % 12);
    batch.dow_out.push_back(0);
  }
  t::Tensor keep = t::Tensor::Ones(t::Shape{1, 8, 5});
  keep.at({0, 3, 2}) = 0.0f;
  ag::Variable out1 = model.PredictMasked(batch.x, keep, batch);
  // Corrupting the masked observation must not change the forecast.
  t::Tensor x2 = batch.x.Clone();
  x2.at({0, 3, 2, 0}) += 1000.0f;
  ag::Variable out2 = model.PredictMasked(x2, keep, batch);
  EXPECT_TRUE(t::AllClose(out1.value(), out2.value(), 1e-4f, 1e-4f));
  EXPECT_FALSE(t::HasNonFinite(out1.value()));
}

TEST(SstbanExtensionsTest, LambdaMutatorChangesLossMix) {
  sstban::SstbanConfig config;
  config.num_nodes = 4;
  config.input_len = 6;
  config.output_len = 6;
  config.num_features = 1;
  config.steps_per_day = 12;
  config.hidden_dim = 4;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.patch_len = 2;
  config.lambda = 0.5;
  sstban::SstbanModel model(config);
  model.SetTraining(true);
  data::Batch batch;
  core::Rng rng(11);
  batch.x = t::Tensor::RandomNormal(t::Shape{1, 6, 4, 1}, rng);
  batch.y = t::Tensor::RandomNormal(t::Shape{1, 6, 4, 1}, rng);
  for (int i = 0; i < 6; ++i) {
    batch.tod_in.push_back(i);
    batch.dow_in.push_back(0);
    batch.tod_out.push_back(i + 6);
    batch.dow_out.push_back(0);
  }
  model.set_lambda(1.0);
  auto out_recon = model.ForwardTwoBranch(batch.x, batch.y, batch);
  EXPECT_NEAR(out_recon.total_loss.item(), out_recon.alignment_loss.item(), 1e-5f);
  model.set_lambda(0.0);
  auto out_forecast = model.ForwardTwoBranch(batch.x, batch.y, batch);
  EXPECT_NEAR(out_forecast.total_loss.item(), out_forecast.forecast_loss.item(),
              1e-5f);
  model.set_self_supervised(false);
  auto out_off = model.ForwardTwoBranch(batch.x, batch.y, batch);
  EXPECT_FALSE(out_off.alignment_loss.defined());
}

}  // namespace
}  // namespace sstban
