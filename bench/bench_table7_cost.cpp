// Reproduces Table VII: computation cost on the Seattle-36 scenario —
// total inference time, training time per epoch, total training time, and
// memory cost, for every model. Absolute seconds are incomparable (CPU vs
// the authors' A4000 GPU). The paper highlights three orderings: RNN-family
// models (DCRNN) pay a large sequential-time cost, the full-attention
// models (GMAN/ASTGNN) pay large memory costs, and SSTBAN's bottleneck
// keeps its total running time the smallest among the deep models despite
// carrying a second (self-supervised) branch. None holds here; see the
// printed expectation.

#include <cstdio>
#include <vector>

#include "common/experiment.h"

namespace {

struct PaperCost {
  const char* model;
  double inference_s;
  double per_epoch_s;
  double total_train_s;
  double memory_mb;
};

// Table VII, verbatim (Seattle-36; seconds and MB on the authors' testbed).
const PaperCost kPaperCosts[] = {
    {"DCRNN", 123, 1014, 14314, 1331}, {"GWNet", 32, 289, 4979, 2597},
    {"GMAN", 77, 728, 8856, 14271},    {"AGCRN", 69, 478, 12458, 7953},
    {"DMSTGCN", 50, 531, 15980, 5747}, {"ASTGNN", 197, 904, 21341, 16089},
    {"SSTBAN", 42, 774, 4089, 9585},
};

}  // namespace

int main() {
  using namespace sstban::bench;
  PrintHeader("Table VII - computation cost (Seattle-36 scenario)");
  Scenario scenario = MakeScenario("seattle", 36);
  std::printf("%-10s | %12s %12s %12s %10s | %10s %10s %12s %10s\n", "model",
              "infer(s)", "s/epoch", "train(s)", "mem(MB)", "p.infer",
              "p.s/ep", "p.train", "p.mem");
  std::printf("-----------+---------------------------------------------------+-"
              "---------------------------------------------\n");
  for (const PaperCost& paper : kPaperCosts) {
    RunResult result = RunModel(paper.model, scenario);
    std::printf("%-10s | %12.2f %12.2f %12.2f %10.1f | %10.0f %10.0f %12.0f %10.0f\n",
                paper.model, result.inference_seconds,
                result.train_stats.seconds_per_epoch,
                result.train_stats.total_train_seconds,
                static_cast<double>(result.train_stats.peak_memory_bytes) / 1e6,
                paper.inference_s, paper.per_epoch_s, paper.total_train_s,
                paper.memory_mb);
    std::fflush(stdout);
  }
  std::printf(
      "\n>> expectation (relative ordering, not absolute seconds): the paper's "
      "orderings do\n   not reproduce. Each batch item runs on its own pool "
      "thread, so DCRNN's sequential\n   recurrence no longer makes the largest "
      "inference time; GMAN's full attention does.\n   Fused attention stores "
      "no L x L probabilities, so at 16 nodes SSTBAN, with its\n   second "
      "(masked) encoder pass and reconstructor, needs the most training "
      "memory.\n");
  return 0;
}
