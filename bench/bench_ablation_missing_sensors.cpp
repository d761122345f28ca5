// Extension experiment (not in the paper, but enabled by its machinery):
// robustness to *missing sensors at inference time*. The self-supervised
// branch trains the encoder to operate on masked inputs; the same pathway
// (zeroed inputs + attention key-masking) can serve forecasts when sensors
// drop out in production. We compare
//   (a) mask-aware inference via SstbanModel::PredictMasked
//   (b) naive inference that silently feeds the zero-filled input
// at increasing fractions of randomly missing observations.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/experiment.h"
#include "core/rng.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"
#include "training/metrics.h"
#include "training/trainer.h"

int main() {
  using namespace sstban::bench;
  namespace t = ::sstban::tensor;
  PrintHeader("Extension - inference with missing sensors (PEMS08-24)");
  Scenario scenario = MakeScenario("pems08", 24);

  // Train one SSTBAN normally.
  sstban::sstban::SstbanConfig config =
      sstban::sstban::TableIiiConfig("pems08-24");
  config.num_nodes = scenario.dataset->num_nodes();
  config.num_features = scenario.dataset->num_features();
  config.steps_per_day = scenario.dataset->steps_per_day;
  sstban::sstban::SstbanModel model(config);
  sstban::training::TrainerConfig trainer_config;
  trainer_config.max_epochs = 6;
  trainer_config.batch_size = 8;
  trainer_config.learning_rate = 5e-3f;
  sstban::training::Trainer trainer(trainer_config);
  trainer.Train(&model, *scenario.windows, scenario.split, scenario.normalizer);

  std::printf("\nmissing | mask-aware MAE | naive zero-fill MAE\n");
  for (double missing : {0.0, 0.1, 0.3, 0.5}) {
    sstban::core::Rng rng(314159);
    sstban::training::MetricsAccumulator aware, naive;
    model.SetTraining(false);
    sstban::autograd::NoGradGuard no_grad;
    for (size_t begin = 0; begin < scenario.split.test.size(); begin += 8) {
      size_t end = std::min(begin + 8, scenario.split.test.size());
      std::vector<int64_t> idx(scenario.split.test.begin() + begin,
                               scenario.split.test.begin() + end);
      sstban::data::Batch batch = scenario.windows->MakeBatch(idx);
      t::Tensor x_norm = scenario.normalizer.Transform(batch.x);
      int64_t b = batch.batch_size(), p = batch.input_len();
      int64_t n = scenario.dataset->num_nodes();
      t::Tensor keep = t::Tensor::Ones(t::Shape{b, p, n});
      float* pk = keep.data();
      for (int64_t i = 0; i < keep.size(); ++i) {
        if (rng.NextDouble() < missing) pk[i] = 0.0f;
      }
      // (a) mask-aware path.
      t::Tensor pred_aware = scenario.normalizer.InverseTransform(
          model.PredictMasked(x_norm, keep, batch).value());
      aware.Add(pred_aware, batch.y);
      // (b) naive path: zero-filled input, no key masking.
      t::Tensor x_zeroed = t::Mul(
          x_norm, keep.Reshape(t::Shape{b, p, n, 1}));
      t::Tensor pred_naive = scenario.normalizer.InverseTransform(
          model.Predict(x_zeroed, batch).value());
      naive.Add(pred_naive, batch.y);
    }
    std::printf("  %4.0f%% | %14.2f | %19.2f\n", 100 * missing,
                aware.Compute().mae, naive.Compute().mae);
    std::fflush(stdout);
  }
  std::printf(
      "\n>> expectation: both degrade as sensors disappear, but the "
      "mask-aware pathway\n   (excluding missing keys from attention, as the "
      "SSL branch trains) degrades less\n   than silently feeding zero-filled "
      "inputs.\n");
  return 0;
}
