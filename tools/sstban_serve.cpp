// Serving front end: stands up the micro-batching inference server on a
// synthetic world and drives it with a closed-loop multi-threaded load
// generator, exercising the full production path — bounded queue, batcher,
// versioned model registry (with one mid-run hot-swap), and latency stats.
//
//   sstban_serve [--preset pems08] [--steps 24] [--ckpt serve.sstb]
//                [--epochs 2] [--days 8] [--nodes 16]
//                [--clients 4] [--requests 32] [--deadline-ms 0]
//                [--max-batch 8] [--max-wait-us 2000] [--queue-cap 256]
//                [--swap 1] [--json 0] [--degrade-pct 0] [--var-lag 3]
//                [--stall-ms 2000] [--cache-age -1] [--ingest 0]
//                [--drift recalibrate] [--adapt-steps 24]
//
// Trains a checkpoint if --ckpt does not exist yet (plus a second version
// for the hot-swap), then serves it. `--requests` is per client; a deadline
// of 0 means none. `--json 1` appends the machine-readable stats dump.
//
// Ranges: --steps at least 1 and under half the world's slices; --days
// 1-366; --nodes, --clients and --max-batch 1-1024; --queue-cap and
// --adapt-steps at least 1; --requests 0-1000000000; --epochs and --ingest
// at least 0; --deadline-ms 0-3600000; --max-wait-us 0-3600000000;
// --stall-ms 1-3600000; --degrade-pct 0-100; --var-lag at least 0 and
// under the world's slices; --cache-age at least -1; --swap and --json 0
// or 1. A bad flag exits 2 with a one-line message before any training
// (tools/flags.h).
//
// Resilience knobs: `--degrade-pct N` corrupts channel 0 of N% of requests
// with NaN readings, exercising mask-aware degraded inference; `--var-lag 0`
// skips fitting the VAR tier (the cache tier still answers model faults);
// `--stall-ms` is the batcher watchdog budget. The health probe line is
// printed after the run. SSTBAN_FAILPOINTS (see src/core/failpoint.h)
// injects serving faults: serve_enqueue, serve_batch_run, serve_fallback,
// registry_get.
//
// Overload control (the admission rule at Submit, the deadline check at
// dequeue) runs with its ServerOptions defaults; see DESIGN.md section 16.
//
// `--cache-age N` bounds last-known-good cache staleness to N slices
// (-1 = unbounded, the pre-staleness behavior); stale hits fall through to
// the persistence tier and served responses carry their cache age.
//
// `--ingest N` switches to the drift-aware streaming demo instead of the
// load generator: N live slices are fed through the online-adaptation
// controller (ingest -> shadow eval -> CUSUM -> label-free fine-tune ->
// shadow-gated promotion) against the loaded checkpoint. `--drift` injects a
// regime change at the stream midpoint: `recalibrate` (sudden affine sensor
// recalibration), `seasonal` (ramped demand shift), `grow` (new sensors
// attached — adaptation must refuse the geometry change), or `none`.
// `--adapt-steps` is the fine-tuning budget per adaptation round.

#include <atomic>
#include <cstdio>
#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/var_model.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/synthetic_world.h"
#include "nn/serialization.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "streaming/adaptation_controller.h"
#include "tensor/ops.h"
#include "training/trainer.h"
#include "flags.h"

namespace {

namespace data = ::sstban::data;
namespace nn = ::sstban::nn;
namespace serving = ::sstban::serving;
namespace tensor = ::sstban::tensor;
namespace training = ::sstban::training;
namespace model_ns = ::sstban::sstban;

using ::sstban::tools::BadFlag;
using ::sstban::tools::CheckStepsFit;
using ::sstban::tools::Flags;
using ::sstban::tools::kIntFlagMax;
using ::sstban::tools::ModelFor;
using ::sstban::tools::WorldFor;

// Caps that keep the clock, admission-limit and request-count arithmetic
// far from overflow, and one thread per load-generator client within reason.
constexpr int64_t kMaxMillis = 3'600'000;  // one hour
constexpr int64_t kMaxClients = 1024;
constexpr int64_t kMaxBatch = 1024;
constexpr int64_t kMaxRequests = 1'000'000'000;  // per client

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// Trains `epochs`, saves v1, trains one more epoch, saves v2 — two genuinely
// different weight sets so the hot-swap demonstrably changes the model.
int TrainCheckpoints(const model_ns::SstbanConfig& config,
                     const data::WindowDataset& windows,
                     const data::SplitIndices& split,
                     const data::Normalizer& normalizer, int epochs,
                     const std::string& ckpt, const std::string& ckpt_v2) {
  model_ns::SstbanModel model(config);
  std::printf("training %s checkpoint (%lld params, %zu train windows)...\n",
              model.name().c_str(),
              static_cast<long long>(model.NumParameters()),
              split.train.size());
  training::TrainerConfig trainer_config;
  trainer_config.max_epochs = epochs;
  trainer_config.batch_size = 8;
  trainer_config.verbose = true;
  training::Trainer(trainer_config).Train(&model, windows, split, normalizer);
  auto status = nn::SaveParameters(model, ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  trainer_config.max_epochs = 1;
  training::Trainer(trainer_config).Train(&model, windows, split, normalizer);
  status = nn::SaveParameters(model, ckpt_v2);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %s and %s\n", ckpt.c_str(), ckpt_v2.c_str());
  return 0;
}

struct LoadGenTotals {
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> degraded{0};  // subset of ok answered in degraded mode
  std::atomic<int64_t> deadline{0};
  std::atomic<int64_t> unavailable{0};
  std::atomic<int64_t> invalid{0};
  std::atomic<int64_t> other{0};
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, 1);
  std::string preset = flags.GetString("preset", "pems08");
  int64_t steps = flags.GetInt("steps", 24, 1);
  std::string ckpt = flags.GetString("ckpt", "serve.sstb");
  std::string ckpt_v2 = ckpt + ".v2";
  int epochs = static_cast<int>(flags.GetInt("epochs", 2, 0, kIntFlagMax));
  int64_t clients = flags.GetInt("clients", 4, 1, kMaxClients);
  int64_t requests_per_client = flags.GetInt("requests", 32, 0, kMaxRequests);
  int64_t deadline_ms = flags.GetInt("deadline-ms", 0, 0, kMaxMillis);
  int64_t max_batch = flags.GetInt("max-batch", 8, 1, kMaxBatch);
  int64_t max_wait_us =
      flags.GetInt("max-wait-us", 2000, 0, kMaxMillis * 1000);
  int64_t queue_cap = flags.GetInt("queue-cap", 256, 1);
  bool do_swap = flags.GetInt("swap", 1, 0, 1) != 0;
  bool emit_json = flags.GetInt("json", 0, 0, 1) != 0;
  int64_t degrade_pct = flags.GetInt("degrade-pct", 0, 0, 100);
  int64_t var_lag = flags.GetInt("var-lag", 3, 0, kIntFlagMax);
  int64_t stall_ms = flags.GetInt("stall-ms", 2000, 1, kMaxMillis);
  int64_t cache_age = flags.GetInt("cache-age", -1, -1);
  int64_t ingest_slices = flags.GetInt("ingest", 0, 0);
  std::string drift = flags.GetString("drift", "recalibrate");
  if (drift != "recalibrate" && drift != "seasonal" && drift != "grow" &&
      drift != "none") {
    BadFlag("unknown --drift '" + drift +
            "' (use recalibrate|seasonal|grow|none)");
  }
  int64_t adapt_steps = flags.GetInt("adapt-steps", 24, 1);

  auto dataset = std::make_shared<data::TrafficDataset>(
      data::GenerateSyntheticWorld(WorldFor(preset, flags)));
  if (!flags.RejectUnknown()) return 2;
  CheckStepsFit(steps, *dataset);
  if (var_lag >= dataset->num_steps()) {
    BadFlag("--var-lag " + std::to_string(var_lag) +
            " needs a world of more slices; this one has " +
            std::to_string(dataset->num_steps()) + " (raise --days)");
  }

  data::WindowDataset windows(dataset, steps, steps);
  data::SplitIndices split = data::ChronologicalSplit(windows);
  data::Normalizer normalizer = data::Normalizer::Fit(dataset->signals);
  model_ns::SstbanConfig config = ModelFor(preset, steps, *dataset);

  if (!FileExists(ckpt)) {
    int rc = TrainCheckpoints(config, windows, split, normalizer, epochs, ckpt,
                              ckpt_v2);
    if (rc != 0) return rc;
  } else if (!FileExists(ckpt_v2)) {
    ckpt_v2 = ckpt;  // pre-existing checkpoint: swap re-serves the same file
  }

  serving::ModelRegistry registry(
      [config] { return std::make_unique<model_ns::SstbanModel>(config); },
      normalizer);
  auto status = registry.LoadVersion(ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  if (ingest_slices > 0) {
    namespace streaming = ::sstban::streaming;
    const int64_t total =
        std::min<int64_t>(ingest_slices, dataset->num_steps());
    const int64_t cutover = total / 2;
    // The drifted recording starts diverging from the training world at the
    // stream midpoint; before it, both are identical.
    data::TrafficDataset drifted;
    if (drift == "recalibrate") {
      drifted = data::ApplySensorRecalibration(*dataset, cutover,
                                               /*node_fraction=*/0.5,
                                               /*gain=*/1.6, /*offset=*/3.0,
                                               /*seed=*/77);
    } else if (drift == "seasonal") {
      drifted = data::ApplySeasonalShift(*dataset, cutover, /*amplitude=*/1.2,
                                         dataset->steps_per_day);
    } else if (drift == "grow") {
      drifted = data::AttachNewSensors(*dataset, /*extra=*/2, /*seed=*/77);
    } else {  // "none"
      drifted = *dataset;
    }

    streaming::AdaptationControllerOptions ctl;
    ctl.ingest.num_nodes = dataset->num_nodes();
    ctl.ingest.num_features = dataset->num_features();
    ctl.ingest.input_len = steps;
    ctl.ingest.output_len = steps;
    ctl.ingest.steps_per_day = dataset->steps_per_day;
    ctl.adapter.num_steps = adapt_steps;
    ctl.factory = [config] {
      return std::make_unique<model_ns::SstbanModel>(config);
    };
    streaming::AdaptationController controller(ctl, &registry);
    std::printf(
        "streaming %lld slices (drift '%s' at slice %lld), eval stride "
        "%lld, %lld fine-tune steps per round\n",
        static_cast<long long>(total), drift.c_str(),
        static_cast<long long>(drift == "none" ? -1 : cutover),
        static_cast<long long>(steps), static_cast<long long>(adapt_steps));

    int64_t event_counts[7] = {0};
    int64_t append_errors = 0;
    for (int64_t t = 0; t < total; ++t) {
      const data::TrafficDataset& src = t < cutover ? *dataset : drifted;
      const int64_t n = src.num_nodes();
      const int64_t c = src.num_features();
      tensor::Tensor slice = tensor::Slice(src.signals, 0, t, 1)
                                 .Reshape(tensor::Shape{n, c});
      auto event = controller.OnSlice(slice, t);
      if (!event.ok()) {
        ++append_errors;
        continue;
      }
      ++event_counts[static_cast<int>(event.value())];
      if (event.value() != streaming::StreamEvent::kIngested) {
        std::printf("  slice %lld: %s (serving v%lld, live err %.4f)\n",
                    static_cast<long long>(t),
                    streaming::StreamEventName(event.value()),
                    static_cast<long long>(registry.current_version()),
                    controller.last_live_error());
      }
    }
    std::printf(
        "\nstream summary: evals=%lld rounds=%lld promoted=%lld refused=%lld "
        "rolled_back=%lld geometry_refusals=%lld append_errors=%lld\n"
        "serving v%lld (%s), last live error %.4f\n",
        static_cast<long long>(controller.evals()),
        static_cast<long long>(controller.adaptation_rounds()),
        static_cast<long long>(controller.gate().promotions()),
        static_cast<long long>(controller.gate().refusals()),
        static_cast<long long>(controller.gate().rollbacks()),
        static_cast<long long>(controller.geometry_changes()),
        static_cast<long long>(append_errors),
        static_cast<long long>(registry.current_version()),
        registry.current()->source.c_str(), controller.last_live_error());
    if (emit_json) {
      std::printf(
          "{\"stream\": {\"slices\": %lld, \"evals\": %lld, \"rounds\": "
          "%lld, \"promoted\": %lld, \"refused\": %lld, \"rolled_back\": "
          "%lld, \"geometry_refusals\": %lld, \"version\": %lld}}\n",
          static_cast<long long>(total),
          static_cast<long long>(controller.evals()),
          static_cast<long long>(controller.adaptation_rounds()),
          static_cast<long long>(controller.gate().promotions()),
          static_cast<long long>(controller.gate().refusals()),
          static_cast<long long>(controller.gate().rollbacks()),
          static_cast<long long>(controller.geometry_changes()),
          static_cast<long long>(registry.current_version()));
    }
    return 0;
  }

  serving::ServerOptions options;
  options.input_len = steps;
  options.output_len = steps;
  options.steps_per_day = dataset->steps_per_day;
  options.num_nodes = dataset->num_nodes();
  options.num_features = dataset->num_features();
  options.max_batch = max_batch;
  options.max_wait = std::chrono::microseconds(max_wait_us);
  options.queue_capacity = queue_cap;
  if (degrade_pct > 0) {
    options.sanitizer.degradable_channels = {0};
  }
  options.fallback.max_cache_age_steps = cache_age;
  options.stall_budget = std::chrono::milliseconds(stall_ms);

  serving::ForecastServer server(options, &registry);
  if (var_lag > 0) {
    auto var = std::make_unique<sstban::baselines::VarModel>(
        static_cast<int>(var_lag));
    var->FitSeries(normalizer.Transform(dataset->signals));
    server.SetVarBaseline(std::move(var));
    std::printf("fallback chain: VAR(lag=%lld) + last-known-good cache\n",
                static_cast<long long>(var_lag));
  }
  status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "serving %s v%lld: %lld clients x %lld requests, max_batch=%lld, "
      "max_wait=%lldus, deadline=%lldms\n",
      ckpt.c_str(), static_cast<long long>(registry.current_version()),
      static_cast<long long>(clients),
      static_cast<long long>(requests_per_client),
      static_cast<long long>(max_batch), static_cast<long long>(max_wait_us),
      static_cast<long long>(deadline_ms));

  // Closed-loop load generator: each client thread fires its next request as
  // soon as the previous answer (or rejection) comes back.
  const int64_t max_start = dataset->num_steps() - 2 * steps;
  LoadGenTotals totals;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int64_t cidx = 0; cidx < clients; ++cidx) {
    workers.emplace_back([&, cidx] {
      sstban::core::Rng rng(1000 + static_cast<uint64_t>(cidx));
      for (int64_t r = 0; r < requests_per_client; ++r) {
        int64_t start = static_cast<int64_t>(
            rng.NextBelow(static_cast<uint32_t>(max_start + 1)));
        serving::ForecastRequest request;
        request.recent = tensor::Slice(dataset->signals, 0, start, steps);
        request.first_step = start;
        if (degrade_pct > 0 &&
            rng.NextBelow(100) < static_cast<uint32_t>(degrade_pct)) {
          // Simulate a few dead sensors: NaN out channel 0 of three random
          // (step, sensor) positions; the sanitizer masks them.
          request.recent = request.recent.Clone();
          float* data = request.recent.data();
          const int64_t nodes = request.recent.dim(1);
          const int64_t feats = request.recent.dim(2);
          for (int k = 0; k < 3; ++k) {
            int64_t pos = static_cast<int64_t>(
                rng.NextBelow(static_cast<uint32_t>(steps * nodes)));
            data[pos * feats] = std::numeric_limits<float>::quiet_NaN();
          }
        }
        if (deadline_ms > 0) {
          request.deadline = serving::Clock::now() +
                             std::chrono::milliseconds(deadline_ms);
        }
        auto submitted = server.Submit(std::move(request));
        if (!submitted.ok()) {
          switch (submitted.status().code()) {
            case sstban::core::StatusCode::kUnavailable:
              totals.unavailable.fetch_add(1);
              break;
            case sstban::core::StatusCode::kDeadlineExceeded:
              totals.deadline.fetch_add(1);
              break;
            case sstban::core::StatusCode::kInvalidArgument:
              totals.invalid.fetch_add(1);
              break;
            default:
              totals.other.fetch_add(1);
          }
          continue;
        }
        serving::ForecastResult result = submitted.value().get();
        if (result.ok()) {
          totals.ok.fetch_add(1);
          if (result.value().degraded()) totals.degraded.fetch_add(1);
        } else if (result.status().code() ==
                   sstban::core::StatusCode::kDeadlineExceeded) {
          totals.deadline.fetch_add(1);
        } else if (result.status().code() ==
                   sstban::core::StatusCode::kUnavailable) {
          totals.unavailable.fetch_add(1);
        } else {
          totals.other.fetch_add(1);
        }
      }
    });
  }

  if (do_swap) {
    // Swap roughly mid-run: wait until about half the total requests have
    // completed, then publish the next version. In-flight batches finish on
    // the old weights; nothing fails.
    const int64_t half = clients * requests_per_client / 2;
    while (totals.ok.load() + totals.deadline.load() + totals.other.load() +
               totals.unavailable.load() <
           half) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    auto swap_status = registry.LoadVersion(ckpt_v2);
    if (swap_status.ok()) {
      std::printf("hot-swapped to %s (now serving v%lld)\n", ckpt_v2.c_str(),
                  static_cast<long long>(registry.current_version()));
    } else {
      std::fprintf(stderr, "hot-swap failed (still serving v%lld): %s\n",
                   static_cast<long long>(registry.current_version()),
                   swap_status.ToString().c_str());
    }
  }

  for (std::thread& worker : workers) worker.join();
  serving::HealthReport health = server.CheckHealth();
  server.Shutdown();

  std::printf(
      "\nload generator: ok=%lld (degraded=%lld) deadline=%lld "
      "unavailable=%lld invalid=%lld other=%lld\n",
      static_cast<long long>(totals.ok.load()),
      static_cast<long long>(totals.degraded.load()),
      static_cast<long long>(totals.deadline.load()),
      static_cast<long long>(totals.unavailable.load()),
      static_cast<long long>(totals.invalid.load()),
      static_cast<long long>(totals.other.load()));
  std::printf("health: %s\n\n", health.ToString().c_str());
  std::printf("%s", server.stats().ReportTable().c_str());
  if (emit_json) std::printf("\n%s", server.stats().ReportJson().c_str());
  return totals.other.load() == 0 ? 0 : 1;
}
