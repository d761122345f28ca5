#include <cmath>
#include <string>

#include "bench.h"
#include "core/check.h"
#include "core/memory_tracker.h"
#include "stats.h"

namespace perfbench {

namespace ag = ::sstban::autograd;
namespace data = ::sstban::data;

namespace {

// The trainer's defaults: the paper's Adam learning rate and its clip norm.
constexpr float kLearningRate = 1e-3f;
constexpr float kClipNorm = 5.0f;
// Batches in the progress check. One batch is too few: a batch whose
// untrained loss is already low can end a short run slightly higher.
constexpr int kCheckBatches = 3;

std::vector<int64_t> NextBatch(TrainingEnv& env) {
  std::vector<int64_t> indices;
  for (int64_t b = 0; b < env.batch; ++b) {
    indices.push_back(env.order[env.cursor]);
    env.cursor = (env.cursor + 1) % env.order.size();
  }
  return indices;
}

// One optimizer step of the paper's two-branch objective, with a span per
// stage when traced.
float TrainStep(TrainingEnv& env, Tracer* tracer, int64_t step) {
  ScopedSpan root(tracer, "train.step", -1, step);
  const int64_t parent = root.id();
  data::Batch batch;
  {
    ScopedSpan span(tracer, "data.make_batch", parent, step);
    batch = env.windows->MakeBatch(NextBatch(env));
  }
  sstban::tensor::Tensor x, y;
  {
    ScopedSpan span(tracer, "data.normalize", parent, step);
    x = env.world.normalizer.Transform(batch.x);
    y = env.world.normalizer.Transform(batch.y);
  }
  ag::Variable loss;
  {
    ScopedSpan span(tracer, "sstban.training_loss", parent, step);
    loss = env.model->TrainingLoss(x, y, batch);
  }
  env.model->ZeroGrad();
  {
    ScopedSpan span(tracer, "autograd.backward", parent, step);
    loss.Backward();
  }
  {
    ScopedSpan span(tracer, "optim.clip", parent, step);
    sstban::optim::ClipGradNorm(env.params, kClipNorm);
  }
  {
    ScopedSpan span(tracer, "optim.adam_step", parent, step);
    env.adam->Step();
  }
  return loss.item();
}

// Mean TrainingLoss over the check set, without gradients (masks are drawn
// afresh, which moves only the small alignment term).
float CheckLoss(TrainingEnv& env) {
  sstban::autograd::NoGradGuard no_grad;
  double sum = 0.0;
  for (const std::vector<int64_t>& indices : env.check_batches) {
    data::Batch batch = env.windows->MakeBatch(indices);
    sum += env.model
               ->TrainingLoss(env.world.normalizer.Transform(batch.x),
                              env.world.normalizer.Transform(batch.y), batch)
               .item();
  }
  const auto n = static_cast<double>(env.check_batches.size());
  return static_cast<float>(sum / n);
}

}  // namespace

std::unique_ptr<TrainingEnv> SetUpTraining(const World& world, int64_t batch,
                                           int warmup_steps, uint64_t seed) {
  SSTBAN_CHECK_GT(warmup_steps, 0);
  auto env = std::make_unique<TrainingEnv>();
  env->world = world;
  env->batch = batch;
  env->windows = std::make_unique<data::WindowDataset>(
      world.dataset, world.config.input_len, world.config.output_len);
  env->model = std::make_unique<sstban::sstban::SstbanModel>(world.config);
  env->model->SetTraining(true);
  env->params = env->model->Parameters();
  env->adam = std::make_unique<sstban::optim::Adam>(env->params, kLearningRate);
  env->order =
      TrainingOrder(data::ChronologicalSplit(*env->windows).train, seed);
  for (int b = 0; b < kCheckBatches; ++b) {
    env->check_batches.emplace_back(env->order.begin() + b * batch,
                                    env->order.begin() + (b + 1) * batch);
  }
  env->first_loss = CheckLoss(*env);
  for (int s = 0; s < warmup_steps; ++s) {
    const float loss = TrainStep(*env, nullptr, -1);
    SSTBAN_CHECK(std::isfinite(loss)) << "warm-up loss" << loss;
  }
  return env;
}

PhaseResult RunTrainingPhase(TrainingEnv& env, double seconds, Tracer* tracer) {
  PhaseResult r;
  const auto& memory = sstban::core::MemoryTracker::Global();
  const int64_t hits0 = memory.pool_hits(), misses0 = memory.pool_misses(),
                heap0 = memory.heap_allocs();
  ResetPeakRss();
  const ProcessUsage usage0 = ReadProcessUsage();
  const HostCpu host0 = ReadHostCpu();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  for (Clock::time_point now = start; now < stop;) {
    const float loss = TrainStep(env, tracer, r.attempted);
    const auto done = Clock::now();
    ++r.attempted;
    r.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - now).count());
    if (std::isfinite(loss)) {
      ++r.succeeded;
      r.ops += env.batch;
    } else {
      ++r.incorrect;
      r.errors.push_back("step " + std::to_string(r.attempted - 1) +
                         ": non-finite loss");
    }
    now = done;
  }
  const ProcessUsage usage1 = ReadProcessUsage();
  r.peak_rss_mb = PeakRssMb();
  r.steal_share = StealShare(host0, ReadHostCpu());
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.usage = {usage1.user_s - usage0.user_s, usage1.sys_s - usage0.sys_s,
             usage1.minor_faults - usage0.minor_faults};
  r.pool_hits = memory.pool_hits() - hits0;
  r.pool_misses = memory.pool_misses() - misses0;
  r.heap_allocs = memory.heap_allocs() - heap0;
  return r;
}

void CheckTrainingProgress(TrainingEnv& env, PhaseResult* r) {
  const float final_loss = CheckLoss(env);
  r->layer["check.first_loss"] = env.first_loss;
  r->layer["check.final_loss"] = final_loss;
  if (!(std::isfinite(final_loss) && final_loss < env.first_loss)) {
    ++r->incorrect;
    r->errors.push_back("loss did not fall: first " +
                        std::to_string(env.first_loss) + ", final " +
                        std::to_string(final_loss));
  }
}

}  // namespace perfbench
