#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The harness's workloads. Each drives the library only through its public
// entry points: serving::ForecastServer, training::RunBatchedInference,
// SstbanModel::TrainingLoss, autograd::Variable::Backward and optim::Adam.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "host.h"
#include "optim/optimizer.h"
#include "schedule.h"
#include "serving/forecast_server.h"
#include "serving/model_registry.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "trace.h"

namespace perfbench {

// The generated world a workload runs on, and the model geometry over it.
struct World {
  std::shared_ptr<const sstban::data::TrafficDataset> dataset;
  sstban::data::Normalizer normalizer;  // fit on the first 60% of slices
  sstban::sstban::SstbanConfig config;  // Table III "pems04-24" at P = Q = 12
  int64_t num_windows() const;          // full input + target windows
};

// data::Pems04LikeConfig() at `num_nodes` detectors; model weights are
// initialised from `seed`.
World MakeWorld(int64_t num_nodes, uint64_t seed);

// Named numbers a run reports (per-layer metrics, diagnostics).
using Metrics = std::map<std::string, double>;

// What one measured phase produced. A serving unit is a request and an op is
// a correct answer; a training unit is an optimizer step and an op is one
// window of its batch.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  // Serving misses: refused at Submit with Unavailable or DeadlineExceeded,
  // or answered with one of those codes, or answered after the deadline.
  // They sit at the latency limit and lower the gated succeeded_share.
  int64_t refused = 0;
  int64_t late = 0;
  // Everything else that went wrong: answers that are not a finite [Q, N, C]
  // forecast from the model, error codes other than the two above, recompute
  // mismatches or no recomputed answer at all, and non-finite training
  // losses. Any of these makes the run fail.
  int64_t incorrect = 0;
  int64_t ops = 0;
  std::vector<double> latency_ms;  // one per unit, misses at the limit
  double wall_s = 0.0;
  ProcessUsage usage;              // deltas over the phase
  double peak_rss_mb = 0.0;        // peak resident set during the phase
  int64_t pool_hits = 0, pool_misses = 0, heap_allocs = 0;
  double steal_share = -1.0;
  std::vector<double> send_lag_ms;  // serving: actual send - due
  Metrics layer;                    // serving-layer figures and checks
  std::vector<std::string> errors;  // what made `incorrect` non-zero

  int64_t failed() const { return attempted - succeeded; }
  double succeeded_share() const {
    return static_cast<double>(succeeded) / static_cast<double>(attempted);
  }
  // NaN when nothing succeeded: no cost per op exists, and the result is
  // rejected rather than read as the cheapest run.
  double cpu_ms_per_op() const {
    return ops > 0 ? usage.cpu_s() * 1e3 / static_cast<double>(ops) : NAN;
  }
};

// -- Serving (serving_run.cc) -------------------------------------------------
struct ServingEnv {
  World world;
  ArrivalPlan plan;
  std::vector<Arrival> schedule;
  std::vector<sstban::tensor::Tensor> windows;  // [P, N, C] per arrival
  std::vector<int64_t> recompute;               // arrivals re-checked
  std::unique_ptr<sstban::serving::ModelRegistry> registry;
  std::unique_ptr<sstban::serving::ForecastServer> server;  // after registry
};

// Starts a ForecastServer over a seed-initialised model (default options but
// the window geometry), warms it up, and pre-builds the requests of the
// seeded schedule for a `seconds`-long phase.
std::unique_ptr<ServingEnv> SetUpServing(const World& world,
                                         const ArrivalPlan& plan,
                                         double seconds, uint64_t seed);
// One open-loop phase: one sender thread submits on schedule and one
// completion thread checks every answer. Then a seeded sample of answers is
// recomputed with a direct single-window RunBatchedInference on an
// identically seeded model.
PhaseResult RunServingPhase(ServingEnv& env, Tracer* tracer);

// -- Training (training_run.cc) -----------------------------------------------
struct TrainingEnv {
  World world;
  int64_t batch = 0;
  std::unique_ptr<sstban::data::WindowDataset> windows;
  std::unique_ptr<sstban::sstban::SstbanModel> model;
  std::vector<sstban::autograd::Variable> params;
  std::unique_ptr<sstban::optim::Adam> adam;
  std::vector<int64_t> order;  // seeded window order, consumed cyclically
  size_t cursor = 0;
  // The progress check: batches of the first windows of `order`, and their
  // mean loss before the first step.
  std::vector<std::vector<int64_t>> check_batches;
  float first_loss = 0.0f;
};

// Builds the model and Adam, orders the training windows by the seed, takes
// the check set's loss and runs `warmup_steps` steps of `batch` windows.
std::unique_ptr<TrainingEnv> SetUpTraining(const World& world, int64_t batch,
                                           int warmup_steps, uint64_t seed);
// Trains for `seconds` (whole steps); a non-finite loss is an incorrect step.
PhaseResult RunTrainingPhase(TrainingEnv& env, double seconds, Tracer* tracer);
// Counts an incorrect result unless the check set's mean loss has dropped
// below its value before the first step.
void CheckTrainingProgress(TrainingEnv& env, PhaseResult* r);

// -- Component probes (probes.cc) ---------------------------------------------
// Times RunBatchedInference, the SSTBAN modules and the tensor kernels at the
// workload's shapes (`batch` windows over the world's graph), recording a
// span per call, and adds the per-layer figures to `out`.
void RunProbes(const World& world, int64_t batch, uint64_t seed,
               Tracer* tracer, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
