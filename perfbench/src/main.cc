// perfbench: the canonical end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--setup-only 1]
//
// Untraced (--trace 0), it sets a workload up once, measures it for
// `seconds`, checks every answer, and prints the end-to-end metrics; the
// set-up is timed in process CPU seconds. Traced (--trace 1), it measures the
// workload untraced and then traced, runs the component probes at the
// workload's shapes, writes the spans to
// <trace-dir>/<workload>-seed<n>.trace.json, and prints the per-layer metrics
// and the tracing overhead. With --setup-only 1 it only sets the workload up
// and prints {"setup_s": <cpu s>, "setup_wall_s": <s>}; run.py reports the
// median of three such cold set-ups, each in a fresh process. The last line
// of output is one JSON object. Exit codes: 0 when every answer was correct,
// 1 when one was not, 2 on bad arguments or environment.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "stats.h"

extern char** environ;

namespace perfbench {
namespace {

enum class Kind { kServing, kTraining };

struct Workload {
  const char* name;
  Kind kind;
  int64_t num_nodes;
  int64_t batch;         // the batch its forwards run at
  ArrivalPlan arrivals;  // serving only
};

using std::chrono::milliseconds;

// Why each workload exists is recorded in BENCHMARK.json and NOTES.md. Both
// run on PEMS04's 307 detectors.
const Workload kWorkloads[] = {
    // 8 requests (max_batch) together every second, each due within it.
    {"pems_burst", Kind::kServing, 307, 8,
     {8, milliseconds(1000), milliseconds(1000)}},
    // The paper's training step at its batch size of 4.
    {"train_pems", Kind::kTraining, 307, 4, {}},
};

// The workload of the other kind, on the same graph.
const Workload& Sibling(const Workload& w) {
  for (const Workload& other : kWorkloads) {
    if (other.kind != w.kind) return other;
  }
  return w;
}

// Every traced run reports every per-layer metric, so the layer a workload
// does not use is probed for this long with its sibling's settings.
constexpr double kProbeSeconds = 3.0;
constexpr int kWarmupSteps = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Gated end to end. Latency is printed every run but not gated: on a shared
// VM it follows the host's steal (NOTES.md, "Host noise").
const MetricDef kEndToEnd[] = {
    {"cpu_ms_per_op", "ms"},
    {"succeeded_share", "share"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"serving.submit_us", "us"},
    {"serving.queue_wait_ms", "ms"},
    {"serving.assembly_ms", "ms"},
    {"serving.forward_ms", "ms"},
    {"serving.batch_overhead_ms", "ms"},
    {"serving.client_gap_ms", "ms"},
    {"serving.batch_size_mean", "count"},
    {"serving.admitted_share", "share"},
    {"serving.shed_admission", "count"},
    {"serving.rejected_predicted_late", "count"},
    {"serving.swept_predicted_late", "count"},
    {"serving.admission_limit", "count"},
    {"training.inference_ms", "ms"},
    {"sstban.ste_ms", "ms"},
    {"sstban.encoder_ms", "ms"},
    {"sstban.transform_attention_ms", "ms"},
    {"sstban.forecast_decoder_ms", "ms"},
    {"sstban.stba_block_ms", "ms"},
    {"sstban.bottleneck_attention_ms", "ms"},
    {"sstban.training_loss_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"optim.clip_ms", "ms"},
    {"optim.adam_step_ms", "ms"},
    {"data.make_batch_ms", "ms"},
    {"data.normalize_ms", "ms"},
    {"tensor.gemm_gflops", "GF/s"},
    {"tensor.absorb_attention_gflops", "GF/s"},
    {"tensor.broadcast_attention_gflops", "GF/s"},
    {"tensor.permute_gbps", "GB/s"},
    {"tensor.bcast_add_gbps", "GB/s"},
    {"core.pool_hit_rate", "share"},
    {"core.heap_allocs_per_op", "count"},
    {"core.minor_faults_per_op", "count"},
    {"core.sys_cpu_share", "share"},
    {"core.cpu_per_wall", "ratio"},
    {"trace.overhead_latency_p50_ms", "ms"},
    {"trace.overhead_latency_min_ms", "ms"},
    {"trace.overhead_cpu_ms_per_op", "ms"},
};

// Every digit: the shortest text that reads back as the same double.
std::string Num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_dir = ".bench_build/traces";
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') args->seconds = 0.0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") == 0   ? 0
                    : std::strcmp(value, "1") == 0 ? 1
                                                   : -1;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--setup-only") {
      args->setup_only = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->workload.empty() &&
         args->seconds > 0.0 && args->seconds <= 600.0 && args->trace >= 0;
}

// The benchmark measures the library's defaults; any SSTBAN_* knob would
// silently change what it measures.
std::vector<std::string> SstbanEnvironment() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SSTBAN_", 7) == 0) set.emplace_back(*e);
  }
  return set;
}

// Everything one workload run needs, whatever its kind.
struct WorkloadRun {
  const Workload& workload;
  uint64_t seed;
  double seconds;
  std::unique_ptr<ServingEnv> serving;
  std::unique_ptr<TrainingEnv> training;

  void SetUp() {
    serving.reset();
    training.reset();
    World world = MakeWorld(workload.num_nodes, seed);
    if (workload.kind == Kind::kServing) {
      serving = SetUpServing(world, workload.arrivals, seconds, seed);
    } else {
      training = SetUpTraining(world, workload.batch, kWarmupSteps, seed);
    }
  }

  PhaseResult Measure(Tracer* tracer) {
    return serving ? RunServingPhase(*serving, tracer)
                   : RunTrainingPhase(*training, seconds, tracer);
  }

  const World& world() const {
    return serving ? serving->world : training->world;
  }
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// What a phase's latency samples say: the fastest unit, which no queueing
// or host interference delayed, and the median and p95 with the counts
// they rest on.
struct Headline {
  Quantile min, p50, p95;
  double cpu_ms_per_op = 0.0;
};

Headline Summarize(const PhaseResult& r) {
  return {NearestRank(r.latency_ms, 0), NearestRank(r.latency_ms, 50),
          NearestRank(r.latency_ms, 95), r.cpu_ms_per_op()};
}

void PrintPhase(Kind kind, const char* label, const PhaseResult& r) {
  const Headline h = Summarize(r);
  const bool serving = kind == Kind::kServing;
  std::printf("[%s] attempted %lld, succeeded %lld, failed %lld "
              "(refused %lld, late %lld, incorrect %lld), failed_share %s\n",
              label, static_cast<long long>(r.attempted),
              static_cast<long long>(r.succeeded),
              static_cast<long long>(r.failed()),
              static_cast<long long>(r.refused),
              static_cast<long long>(r.late),
              static_cast<long long>(r.incorrect),
              Num(static_cast<double>(r.failed()) / r.attempted).c_str());
  const char* unit = serving ? "request" : "step";
  std::printf("[%s] latency_min_ms %s (per %s, n=%lld)\n", label,
              Num(h.min.value).c_str(), unit,
              static_cast<long long>(h.min.count));
  for (const Quantile* q : {&h.p50, &h.p95}) {
    std::printf("[%s] latency_p%d_ms %s (n=%lld, %lld beyond%s)\n", label,
                q == &h.p50 ? 50 : 95, Num(q->value).c_str(),
                static_cast<long long>(q->count),
                static_cast<long long>(q->beyond),
                q == &h.p50 || Reportable(*q) ? ""
                                              : "; too few to read as a tail");
  }
  if (!serving) {
    std::printf("[%s] train_windows_per_s %s\n", label,
                Num(static_cast<double>(r.ops) / r.wall_s).c_str());
  }
  std::printf("[%s] %s %s\n", label,
              serving ? "cpu_ms_per_forecast" : "cpu_ms_per_train_window",
              Num(h.cpu_ms_per_op).c_str());
  std::printf("[%s] peak_rss_mb %s\n", label, Num(r.peak_rss_mb).c_str());
  const Quantile lag99 = NearestRank(r.send_lag_ms, 99);
  const Quantile lag100 = NearestRank(r.send_lag_ms, 100);
  std::printf("[%s] host: steal_share %s, send_lag_p99_ms %s, "
              "send_lag_max_ms %s, wall_s %s\n",
              label, Num(r.steal_share).c_str(), Num(lag99.value).c_str(),
              Num(lag100.value).c_str(), Num(r.wall_s).c_str());
  for (const char* key :
       {"serving.batch_size_mean", "check.recomputed",
        "check.recompute_worst_vs_tolerance", "check.first_loss",
        "check.final_loss"}) {
    if (auto it = r.layer.find(key); it != r.layer.end()) {
      std::printf("[%s] %s %s\n", label, key, Num(it->second).c_str());
    }
  }
  for (const std::string& e : r.errors) {
    std::printf("[%s] ERROR %s\n", label, e.c_str());
  }
}

// The last line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& values, const MetricDef* defs, size_t n_defs) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < n_defs; ++i) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? NAN : it->second;
    out += std::string(i ? ", " : "") + "\"" + defs[i].name +
           "\": {\"value\": " + Num(v) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

// The process's first set-up, cold: nothing allocated, pooled or started
// yet. Timed in process CPU seconds, which follow the host's steal less than
// wall time does; the wall time is printed beside it.
struct SetupTime {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

SetupTime TimeColdSetUp(WorkloadRun& s) {
  const ProcessUsage usage0 = ReadProcessUsage();
  const auto t0 = Clock::now();
  s.SetUp();
  return {ReadProcessUsage().cpu_s() - usage0.cpu_s(),
          Seconds(Clock::now() - t0)};
}

int RunSetupOnly(WorkloadRun& s) {
  const SetupTime setup = TimeColdSetUp(s);
  std::printf("{\"setup_s\": %s, \"setup_wall_s\": %s}\n",
              Num(setup.cpu_s).c_str(), Num(setup.wall_s).c_str());
  return 0;
}

int RunUntraced(WorkloadRun& s) {
  const SetupTime setup = TimeColdSetUp(s);
  PhaseResult r = s.Measure(nullptr);
  if (s.training) CheckTrainingProgress(*s.training, &r);
  std::printf("setup_s %s (cpu; wall %s)\n", Num(setup.cpu_s).c_str(),
              Num(setup.wall_s).c_str());
  PrintPhase(s.workload.kind, "measured", r);
  const Metrics m = {{"cpu_ms_per_op", r.cpu_ms_per_op()},
                     {"succeeded_share", r.succeeded_share()},
                     {"setup_s", setup.cpu_s},
                     {"peak_rss_mb", r.peak_rss_mb}};
  const bool correct = r.incorrect == 0;
  PrintResult(correct, r.attempted, r.failed(), m, kEndToEnd,
              std::size(kEndToEnd));
  return correct ? 0 : 1;
}

int RunTraced(WorkloadRun& s, const Args& args) {
  const auto t0 = Clock::now();
  s.SetUp();
  std::printf("setup_s %s (one set-up)\n",
              Num(Seconds(Clock::now() - t0)).c_str());
  Tracer tracer(1 << 17);
  PhaseResult plain = s.Measure(nullptr);
  PhaseResult traced = s.Measure(&tracer);
  if (s.training) CheckTrainingProgress(*s.training, &traced);
  int64_t incorrect = plain.incorrect + traced.incorrect;
  PrintPhase(s.workload.kind, "untraced", plain);
  PrintPhase(s.workload.kind, "traced", traced);

  Metrics m;
  // The layer the workload does not exercise is probed with its sibling's
  // settings.
  const World& world = s.world();
  const Workload& sibling = Sibling(s.workload);
  PhaseResult serving_layer, training_layer;
  if (s.serving) {
    serving_layer = traced;
    auto probe = SetUpTraining(world, sibling.batch, 1, s.seed);
    training_layer = RunTrainingPhase(*probe, kProbeSeconds, &tracer);
    PrintPhase(Kind::kTraining, "training probe", training_layer);
  } else {
    training_layer = traced;
    auto probe =
        SetUpServing(world, sibling.arrivals, kProbeSeconds, s.seed);
    serving_layer = RunServingPhase(*probe, &tracer);
    PrintPhase(Kind::kServing, "serving probe", serving_layer);
  }
  incorrect += serving_layer.incorrect + training_layer.incorrect;
  for (const auto& [k, v] : serving_layer.layer) m[k] = v;
  m["sstban.training_loss_ms"] = tracer.MeanMs("sstban.training_loss");
  m["autograd.backward_ms"] = tracer.MeanMs("autograd.backward");
  m["optim.clip_ms"] = tracer.MeanMs("optim.clip");
  m["optim.adam_step_ms"] = tracer.MeanMs("optim.adam_step");
  m["data.make_batch_ms"] = tracer.MeanMs("data.make_batch");
  m["data.normalize_ms"] = tracer.MeanMs("data.normalize");
  RunProbes(world, s.workload.batch, s.seed, &tracer, &m);

  // Allocation and fault counts of the workload itself, untraced.
  const double ops = static_cast<double>(std::max<int64_t>(plain.ops, 1));
  const int64_t lookups = plain.pool_hits + plain.pool_misses;
  m["core.pool_hit_rate"] = static_cast<double>(plain.pool_hits) /
                            static_cast<double>(std::max<int64_t>(lookups, 1));
  m["core.heap_allocs_per_op"] = static_cast<double>(plain.heap_allocs) / ops;
  m["core.minor_faults_per_op"] =
      static_cast<double>(plain.usage.minor_faults) / ops;
  m["core.sys_cpu_share"] =
      plain.usage.cpu_s() > 0 ? plain.usage.sys_s / plain.usage.cpu_s() : 0.0;

  const Headline a = Summarize(plain);
  const Headline b = Summarize(traced);
  m["trace.overhead_latency_p50_ms"] = b.p50.value - a.p50.value;
  m["trace.overhead_latency_min_ms"] = b.min.value - a.min.value;
  m["trace.overhead_cpu_ms_per_op"] = b.cpu_ms_per_op - a.cpu_ms_per_op;

  std::printf("self time by span (%lld spans, %lld dropped):\n",
              static_cast<long long>(tracer.recorded()),
              static_cast<long long>(tracer.dropped()));
  std::printf("  %-30s %8s %12s %12s %10s\n", "span", "count", "total_ms",
              "self_ms", "mean_ms");
  for (const auto& t : tracer.Totals()) {
    std::printf("  %-30s %8lld %12.3f %12.3f %10.4f\n", t.name.c_str(),
                static_cast<long long>(t.count), t.total_ms, t.self_ms,
                t.total_ms / static_cast<double>(t.count));
  }
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/" + s.workload.name + "-seed" +
                           std::to_string(s.seed) + ".trace.json";
  std::printf("spans written to %s: %s\n", path.c_str(),
              tracer.WriteChromeTrace(path) ? "ok" : "FAILED");
  for (const MetricDef& d : kPerLayer) {
    auto it = m.find(d.name);
    std::printf("%s %s %s\n", d.name,
                it == m.end() ? "MISSING" : Num(it->second).c_str(), d.unit);
  }
  PrintResult(incorrect == 0, plain.attempted + traced.attempted,
              plain.failed() + traced.failed(), m, kPerLayer,
              std::size(kPerLayer));
  return incorrect == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const std::vector<std::string> knobs = SstbanEnvironment();
  if (!knobs.empty()) {
    for (const auto& k : knobs) {
      std::fprintf(stderr, "perfbench: %s is set\n", k.c_str());
    }
    std::fprintf(stderr,
                 "perfbench: refusing to run; it measures the defaults\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload %s seed %llu seconds %s trace %d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace);
  WorkloadRun run{*workload, args.seed, args.seconds, nullptr, nullptr};
  if (args.setup_only) return RunSetupOnly(run);
  return args.trace == 1 ? RunTraced(run, args) : RunUntraced(run);
}
