// Reproduces Table VI: ablation of the STBA block. The paper replaces the
// bottleneck attention with full quadratic attention; the full-size model
// then OOMs on an RTX A4000, so they shrink to L = L' = 1 and report that
// SSTBAN with STBA beats the degraded variant on Seattle-36 and PEMS08-36.
// Here we run the same protocol and additionally report the peak training
// memory measured by the tensor allocator. The fused attention stores no
// L x L probabilities, so the memory blow-up that caused the paper's OOM
// does not appear here.

#include <cstdio>
#include <vector>

#include "common/experiment.h"

int main() {
  using namespace sstban::bench;
  PrintHeader("Table VI - ablation study on the STBA block");
  struct Row {
    const char* scenario_dataset;
    int64_t steps;
    const char* model;
    PaperRef paper;
  };
  const std::vector<Row> rows = {
      {"seattle", 36, "SSTBAN", {4.11, 7.83, 12.44, true}},
      {"seattle", 36, "SSTBAN-noSTBA", {4.16, 7.91, 12.84, true}},
      {"seattle", 36, "SSTBAN-noSTBA-deep", {}},
      {"pems08", 36, "SSTBAN", {16.84, 28.30, 12.20, true}},
      {"pems08", 36, "SSTBAN-noSTBA", {17.29, 35.61, 16.27, true}},
      {"pems08", 36, "SSTBAN-noSTBA-deep", {}},
  };
  std::string current_dataset;
  Scenario scenario;
  for (const Row& row : rows) {
    if (current_dataset != row.scenario_dataset) {
      current_dataset = row.scenario_dataset;
      scenario = MakeScenario(row.scenario_dataset, row.steps);
      std::printf("\n--- %s ---\n", scenario.name.c_str());
      PrintComparisonHeader();
    }
    RunResult result = RunModel(row.model, scenario);
    PrintComparisonRow(row.model, result.test, row.paper);
    std::printf("%-18s   peak training memory: %.1f MB\n", "",
                static_cast<double>(result.train_stats.peak_memory_bytes) / 1e6);
    std::fflush(stdout);
  }
  std::printf(
      "\n>> expectation: accuracy of SSTBAN and the w/o-STBA variants is "
      "within noise at this\n   budget (the paper reports SSTBAN ahead). "
      "Memory does not reproduce the paper's OOM,\n   which capped its "
      "variant at L = L' = 1: fused attention stores no L x L\n   "
      "probabilities on either path, so the depth-matched SSTBAN-noSTBA-deep "
      "row needs less\n   memory than SSTBAN, whose blocks each run two "
      "attention stages. Full attention stays\n   quadratic in time - see "
      "bench_attention_scaling.\n");
  return 0;
}
