// The harness's own checks: exact nearest-rank quantiles, the rule that a
// miss is recorded at the latency limit, seeded schedules that repeat, and
// span self time. Exits non-zero on the first failed check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, \
                   #cond);                                           \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using perfbench::NearestRank;

void TestNearestRank() {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);  // 1..200, unsorted
  auto p95 = NearestRank(v, 95);
  EXPECT(p95.value == 190.0 && p95.count == 200 && p95.beyond == 10);
  EXPECT(perfbench::Reportable(p95));
  auto p99 = NearestRank(v, 99);
  EXPECT(p99.value == 198.0 && p99.beyond == 2 && !perfbench::Reportable(p99));
  EXPECT(NearestRank(v, 50).value == 100.0);
  EXPECT(NearestRank(v, 100).value == 200.0 && NearestRank(v, 100).beyond == 0);
  EXPECT(NearestRank(v, 0).value == 1.0 && NearestRank(v, 0).beyond == 199);
  EXPECT(NearestRank({7.0}, 1).value == 7.0);
  EXPECT(NearestRank({}, 50).count == 0);
  // Rank = ceil(p * n / 100): 95% of 21 samples is rank 20, not 19.95 -> 19.
  std::vector<double> w;
  for (int i = 1; i <= 21; ++i) w.push_back(i);
  EXPECT(NearestRank(w, 95).value == 20.0 && NearestRank(w, 95).beyond == 1);
  EXPECT(perfbench::Median({3.0, 1.0, 2.0, 4.0}) == 2.0);
}

void TestMissAtLimit() {
  using perfbench::RecordedLatency;
  EXPECT(RecordedLatency(true, 12.5, 250.0) == 12.5);
  EXPECT(RecordedLatency(false, 3.0, 250.0) == 250.0);   // refused fast
  EXPECT(RecordedLatency(true, 251.0, 250.0) == 250.0);  // correct but late
  EXPECT(RecordedLatency(true, 250.0, 250.0) == 250.0);
  // Refusing more requests can only raise the percentiles.
  std::vector<double> served(100, 10.0), shed = served;
  for (int i = 0; i < 60; ++i) shed[i] = RecordedLatency(false, 1.0, 250.0);
  EXPECT(NearestRank(shed, 50).value == 250.0);
  EXPECT(NearestRank(served, 50).value == 10.0);
}

void TestScheduleDeterminism() {
  using namespace std::chrono;
  perfbench::ArrivalPlan paced{1, milliseconds(100), milliseconds(1000)};
  perfbench::ArrivalPlan burst{24, milliseconds(500), milliseconds(500)};
  auto same = [](const std::vector<perfbench::Arrival>& a,
                 const std::vector<perfbench::Arrival>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].due != b[i].due || a[i].window_start != b[i].window_start) {
        return false;
      }
    }
    return true;
  };
  auto p1 = perfbench::BuildSchedule(paced, 20.0, 1993, 7);
  auto p2 = perfbench::BuildSchedule(paced, 20.0, 1993, 7);
  auto p3 = perfbench::BuildSchedule(paced, 20.0, 1993, 8);
  EXPECT(p1.size() == 200 && same(p1, p2) && !same(p1, p3));
  EXPECT(p1[1].due - p1[0].due == milliseconds(100));
  for (const auto& a : p1) EXPECT(a.window_start >= 0 && a.window_start < 1993);
  auto b1 = perfbench::BuildSchedule(burst, 20.0, 1993, 7);
  EXPECT(b1.size() == 40 * 24 &&
         same(b1, perfbench::BuildSchedule(burst, 20.0, 1993, 7)));
  EXPECT(b1[23].due == b1[0].due &&
         b1[24].due - b1[0].due == milliseconds(500));
  // A longer phase extends the schedule without reshuffling its start.
  auto longer = perfbench::BuildSchedule(paced, 30.0, 1993, 7);
  EXPECT(longer.size() == 300 &&
         longer[199].window_start == p1[199].window_start);

  EXPECT(perfbench::RecomputeSample(200, 8, 7) ==
         perfbench::RecomputeSample(200, 8, 7));
  EXPECT(perfbench::RecomputeSample(5, 8, 7).size() == 5);
  std::vector<int64_t> windows = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  using perfbench::TrainingOrder;
  EXPECT(TrainingOrder(windows, 3) == TrainingOrder(windows, 3));
  EXPECT(TrainingOrder(windows, 3) != TrainingOrder(windows, 4));
}

void TestSelfTime() {
  perfbench::Tracer tracer(8);
  const auto t0 = perfbench::Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int64_t root = tracer.Reserve();
  tracer.Record("child", at(10), at(30), root, 1);
  tracer.Record("child", at(20), at(50), root, 1);  // overlaps the first
  tracer.Write(root, "root", at(0), at(100), -1, 1);
  double root_self = -1, child_total = -1;
  for (const auto& t : tracer.Totals()) {
    if (t.name == "root") root_self = t.self_ms;
    if (t.name == "child") child_total = t.total_ms;
  }
  EXPECT(root_self > 59.999 && root_self < 60.001);  // 100 - union [10, 50)
  EXPECT(child_total > 49.999 && child_total < 50.001);
  EXPECT(tracer.MeanMs("child") > 24.999 && tracer.MeanMs("child") < 25.001);
  for (int i = 0; i < 8; ++i) tracer.Record("fill", at(0), at(1), -1, -1);
  EXPECT(tracer.dropped() == 3 && tracer.recorded() == 8);
}

}  // namespace

int main() {
  TestNearestRank();
  TestMissAtLimit();
  TestScheduleDeterminism();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
