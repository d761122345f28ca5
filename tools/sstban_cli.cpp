// Command-line front end for the library. Three subcommands cover the
// generate -> train -> forecast lifecycle without writing any C++:
//
//   sstban_cli generate --preset pems08 --out signals.csv [--days 8] [--nodes 16]
//   sstban_cli train    --preset pems08 --steps 24 --ckpt model.bin
//                       [--epochs 6] [--days 8] [--nodes 16] [--lr 0.005]
//                       [--checkpoint_dir DIR] [--checkpoint_every N]
//                       [--resume 0|1]
//   sstban_cli forecast --preset pems08 --steps 24 --ckpt model.bin
//                       [--at <window start index>]
//
// Ranges: --steps at least 1 and under half the world's slices; --days
// 1-366; --nodes 1-1024; --epochs at least 0; --lr above 0;
// --checkpoint_every at least 1; --resume 0 or 1; --at within the world. A
// bad flag exits 2 with a one-line message before any work (tools/flags.h).
//
// The preset names the synthetic world (seattle / pems04 / pems08); train
// and forecast regenerate the identical world from its seed, so a saved
// checkpoint is self-consistent with the data it was trained on.
//
// With --checkpoint_dir set, train writes a crash-safe resume checkpoint at
// every epoch boundary and auto-resumes from the newest valid one (disable
// with --resume 0). SIGINT/SIGTERM request a clean checkpoint-then-exit at
// the next epoch boundary instead of dying mid-step; the interrupted run
// exits with status 130 and continues from where it stopped when rerun.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "data/csv_io.h"
#include "tensor/ops.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "nn/serialization.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "training/forecast_service.h"
#include "training/trainer.h"
#include "flags.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

namespace data = ::sstban::data;
namespace nn = ::sstban::nn;
namespace training = ::sstban::training;
namespace model_ns = ::sstban::sstban;

using ::sstban::tools::CheckStepsFit;
using ::sstban::tools::Flags;
using ::sstban::tools::kIntFlagMax;
using ::sstban::tools::ModelFor;
using ::sstban::tools::WorldFor;

int RunGenerate(Flags& flags) {
  std::string preset = flags.GetString("preset", "pems08");
  std::string out = flags.GetString("out", "signals.csv");
  data::TrafficDataset dataset =
      data::GenerateSyntheticWorld(WorldFor(preset, flags));
  if (!flags.RejectUnknown()) return 2;
  auto status = data::SaveSignalsCsv(dataset.signals, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %lld x %lld x %lld signals to %s\n",
              static_cast<long long>(dataset.num_steps()),
              static_cast<long long>(dataset.num_nodes()),
              static_cast<long long>(dataset.num_features()), out.c_str());
  return 0;
}

int RunTrain(Flags& flags) {
  std::string preset = flags.GetString("preset", "pems08");
  int64_t steps = flags.GetInt("steps", 24, 1);
  std::string ckpt = flags.GetString("ckpt", "sstban.bin");
  int epochs = static_cast<int>(flags.GetInt("epochs", 6, 0, kIntFlagMax));
  float lr = flags.GetPositiveFloat("lr", 5e-3f);
  std::string checkpoint_dir = flags.GetString("checkpoint_dir", "");
  int checkpoint_every =
      static_cast<int>(flags.GetInt("checkpoint_every", 1, 1, kIntFlagMax));
  bool resume = flags.GetInt("resume", 1, 0, 1) != 0;
  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(WorldFor(preset, flags)));
  if (!flags.RejectUnknown()) return 2;
  CheckStepsFit(steps, *dataset);

  data::WindowDataset windows(dataset, steps, steps);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);

  model_ns::SstbanModel model(ModelFor(preset, steps, *dataset));
  std::printf("training %s on %s (%lld params, %zu train windows)\n",
              model.name().c_str(), dataset->name.c_str(),
              static_cast<long long>(model.NumParameters()),
              split.train.size());
  training::TrainerConfig trainer_config;
  trainer_config.max_epochs = epochs;
  trainer_config.batch_size = 8;
  trainer_config.learning_rate = lr;
  trainer_config.verbose = true;
  trainer_config.target_feature = preset == "seattle" ? 1 : -1;
  trainer_config.checkpoint_dir = checkpoint_dir;
  trainer_config.checkpoint_every_epochs = checkpoint_every;
  trainer_config.resume = resume;
  if (!checkpoint_dir.empty()) {
    // Die at an epoch boundary with a fresh checkpoint on disk, not
    // mid-step with nothing.
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    trainer_config.stop_requested = [] { return g_stop_requested != 0; };
  }
  training::Trainer trainer(trainer_config);
  training::TrainStats train_stats =
      trainer.Train(&model, windows, split, normalizer);
  if (train_stats.stopped_by_request) {
    std::printf(
        "interrupted: checkpoint written to %s; rerun the same command to "
        "resume from epoch %d\n",
        checkpoint_dir.c_str(), train_stats.epochs_run);
    return 130;
  }

  training::EvalResult test = training::Evaluate(
      &model, windows, split.test, normalizer, 8, false,
      trainer_config.target_feature);
  std::printf("test: %s\n", test.overall.ToString().c_str());
  auto status = nn::SaveParameters(model, ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint saved to %s\n", ckpt.c_str());
  return 0;
}

int RunForecast(Flags& flags) {
  std::string preset = flags.GetString("preset", "pems08");
  int64_t steps = flags.GetInt("steps", 24, 1);
  std::string ckpt = flags.GetString("ckpt", "sstban.bin");
  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(WorldFor(preset, flags)));
  CheckStepsFit(steps, *dataset);
  // The window's history and horizon must both lie inside the world.
  const int64_t last_at = dataset->num_steps() - 2 * steps;
  int64_t at = flags.GetInt("at", last_at, 0, last_at);
  if (!flags.RejectUnknown()) return 2;

  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanModel model(ModelFor(preset, steps, *dataset));
  auto status = nn::LoadParameters(&model, ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  training::ForecastService service(&model, normalizer, steps, steps,
                                    dataset->steps_per_day,
                                    dataset->num_nodes(),
                                    dataset->num_features());
  sstban::tensor::Tensor recent =
      sstban::tensor::Slice(dataset->signals, 0, at, steps);
  auto forecast = service.Forecast(recent, at);
  if (!forecast.ok()) {
    std::fprintf(stderr, "%s\n", forecast.status().ToString().c_str());
    return 1;
  }

  // Print network-mean forecast vs truth per step.
  std::printf("step | forecast (network mean) | actual\n");
  for (int64_t q = 0; q < steps; ++q) {
    sstban::tensor::Tensor pred_q =
        sstban::tensor::Slice(forecast.value(), 0, q, 1);
    sstban::tensor::Tensor true_q =
        sstban::tensor::Slice(dataset->signals, 0, at + steps + q, 1);
    std::printf("%4lld | %22.2f | %8.2f\n", static_cast<long long>(q + 1),
                sstban::tensor::MeanAll(pred_q).item(),
                sstban::tensor::MeanAll(true_q).item());
  }
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sstban_cli <generate|train|forecast> [--flag value ...]\n"
               "  generate --preset seattle|pems04|pems08 --out FILE"
               " [--days N] [--nodes N]\n"
               "  train    --preset P --steps 24|36|48 --ckpt FILE"
               " [--epochs N] [--lr R] [--days N] [--nodes N]\n"
               "           [--checkpoint_dir DIR] [--checkpoint_every N]"
               " [--resume 0|1]\n"
               "  forecast --preset P --steps S --ckpt FILE [--at INDEX]"
               " [--days N] [--nodes N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  Flags flags(argc, argv, 2);
  std::string command = argv[1];
  if (command == "generate") return RunGenerate(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "forecast") return RunForecast(flags);
  PrintUsage();
  return 2;
}
