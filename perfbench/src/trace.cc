#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

Tracer::Tracer(int64_t capacity) : spans_(capacity), origin_(Clock::now()) {}

int64_t Tracer::Reserve() {
  int64_t id = next_.fetch_add(1, std::memory_order_relaxed);
  if (id >= static_cast<int64_t>(spans_.size())) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  return id;
}

void Tracer::Write(int64_t id, const char* name, Clock::time_point start,
                   Clock::time_point end, int64_t parent, int64_t request) {
  if (id < 0) return;
  Span& s = spans_[id];
  s.start_ns = (start - origin_).count();
  s.end_ns = (end - origin_).count();
  s.parent = parent;
  s.request = request;
  s.name = name;
}

int64_t Tracer::recorded() const {
  return std::min<int64_t>(next_.load(), static_cast<int64_t>(spans_.size()));
}

std::vector<Tracer::NameTotals> Tracer::Totals() const {
  const int64_t n = recorded();
  // Children's intervals per parent, to subtract from the parent's duration.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(n);
  for (int64_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.name != nullptr && s.parent >= 0 && s.parent < n) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, NameTotals> by_name;
  for (int64_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.name == nullptr) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    NameTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += (s.end_ns - s.start_ns) * 1e-6;
    t.self_ms += (s.end_ns - s.start_ns - covered) * 1e-6;
  }
  std::vector<NameTotals> out;
  for (auto& [name, totals] : by_name) out.push_back(totals);
  return out;
}

double Tracer::MeanMs(const std::string& name) const {
  for (const NameTotals& t : Totals()) {
    if (t.name == name) return t.total_ms / static_cast<double>(t.count);
  }
  return 0.0;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (int64_t i = 0; i < recorded(); ++i) {
    const Span& s = spans_[i];
    if (s.name == nullptr) continue;
    // One track per request keeps a request's spans together on screen.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 first ? "" : ",\n", s.name,
                 static_cast<long long>(s.request < 0 ? 0 : s.request),
                 s.start_ns * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(i), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
