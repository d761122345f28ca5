#include "serving/server_stats.h"

#include "core/memory_tracker.h"
#include "core/string_util.h"

namespace sstban::serving {

namespace {

ServerStats::StageSummary Summarize(const core::Histogram& h) {
  ServerStats::StageSummary s;
  s.count = h.count();
  s.mean = h.mean();
  s.p50 = h.Quantile(0.50);
  s.p90 = h.Quantile(0.90);
  s.p99 = h.Quantile(0.99);
  s.max = h.max();
  return s;
}

void AppendStageRow(std::string* out, const char* name,
                    const ServerStats::StageSummary& s) {
  *out += core::StrFormat(
      "  %-14s %8lld  %9.3f  %9.3f  %9.3f  %9.3f  %9.3f\n", name,
      static_cast<long long>(s.count), s.mean * 1e3, s.p50 * 1e3, s.p90 * 1e3,
      s.p99 * 1e3, s.max * 1e3);
}

void AppendStageJson(std::string* out, const char* name,
                     const ServerStats::StageSummary& s, bool trailing_comma) {
  *out += core::StrFormat(
      "    \"%s\": {\"count\": %lld, \"mean_ms\": %.6f, \"p50_ms\": %.6f, "
      "\"p90_ms\": %.6f, \"p99_ms\": %.6f, \"max_ms\": %.6f}%s\n",
      name, static_cast<long long>(s.count), s.mean * 1e3, s.p50 * 1e3,
      s.p90 * 1e3, s.p99 * 1e3, s.max * 1e3, trailing_comma ? "," : "");
}

}  // namespace

ServerStats::ServerStats() = default;

void ServerStats::RecordQueueWait(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_wait_.Record(seconds);
}

void ServerStats::RecordAssembly(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  assembly_.Record(seconds);
}

void ServerStats::RecordForward(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  forward_.Record(seconds);
}

void ServerStats::RecordEndToEnd(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  end_to_end_.Record(seconds);
}

void ServerStats::RecordDegradation(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone:
      degraded_none_.fetch_add(1);
      break;
    case DegradationLevel::kPartial:
      degraded_partial_.fetch_add(1);
      break;
    case DegradationLevel::kHeavy:
      degraded_heavy_.fetch_add(1);
      break;
  }
}

void ServerStats::RecordServedBy(ServedBy tier) {
  switch (tier) {
    case ServedBy::kModel:
      served_model_.fetch_add(1);
      break;
    case ServedBy::kVarBaseline:
      served_var_.fetch_add(1);
      break;
    case ServedBy::kCache:
      served_cache_.fetch_add(1);
      break;
  }
}

void ServerStats::SetResilienceProvider(ResilienceProvider provider) {
  resilience_provider_ = std::move(provider);
}

void ServerStats::SetOverloadProvider(OverloadProvider provider) {
  overload_provider_ = std::move(provider);
}

void ServerStats::RecordBatch(int64_t batch_size) {
  batches_.fetch_add(1);
  std::unique_lock<std::mutex> lock(mutex_);
  ++batch_sizes_[batch_size];
}

void ServerStats::UpdateQueueDepth(int64_t depth) {
  queue_depth_.store(depth);
  int64_t peak = peak_queue_depth_.load();
  while (depth > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, depth)) {
  }
}

ServerStats::Snapshot ServerStats::TakeSnapshot() const {
  Snapshot snap;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    snap.queue_wait = Summarize(queue_wait_);
    snap.assembly = Summarize(assembly_);
    snap.forward = Summarize(forward_);
    snap.end_to_end = Summarize(end_to_end_);
    snap.batch_sizes.assign(batch_sizes_.begin(), batch_sizes_.end());
  }
  snap.accepted = accepted_.load();
  snap.completed = completed_.load();
  snap.batches = batches_.load();
  snap.rejected_full = rejected_full_.load();
  snap.rejected_deadline = rejected_deadline_.load();
  snap.rejected_invalid = rejected_invalid_.load();
  snap.hot_swaps = hot_swaps_.load();
  snap.queue_depth = queue_depth_.load();
  snap.peak_queue_depth = peak_queue_depth_.load();
  snap.degraded_none = degraded_none_.load();
  snap.degraded_partial = degraded_partial_.load();
  snap.degraded_heavy = degraded_heavy_.load();
  snap.served_model = served_model_.load();
  snap.served_var = served_var_.load();
  snap.served_cache = served_cache_.load();
  snap.rejected_nonfinite = rejected_nonfinite_.load();
  snap.rejected_wedged = rejected_wedged_.load();
  snap.swept_expired = swept_expired_.load();
  snap.rejected_shutdown = rejected_shutdown_.load();
  snap.shed_admission = shed_admission_.load();
  snap.rejected_predicted_late = rejected_predicted_late_.load();
  snap.swept_predicted_late = swept_predicted_late_.load();
  if (resilience_provider_) snap.resilience = resilience_provider_();
  if (overload_provider_) snap.overload = overload_provider_();
  snap.elapsed_seconds = uptime_.ElapsedSeconds();
  snap.requests_per_second =
      snap.elapsed_seconds > 0.0
          ? static_cast<double>(snap.completed) / snap.elapsed_seconds
          : 0.0;
  const core::MemoryTracker& mem = core::MemoryTracker::Global();
  snap.memory.live_bytes = mem.live_bytes();
  snap.memory.peak_bytes = mem.peak_bytes();
  snap.memory.pool_hits = mem.pool_hits();
  snap.memory.pool_misses = mem.pool_misses();
  int64_t pool_requests = snap.memory.pool_hits + snap.memory.pool_misses;
  snap.memory.pool_hit_rate =
      pool_requests > 0
          ? static_cast<double>(snap.memory.pool_hits) / pool_requests
          : 0.0;
  snap.memory.pool_recycled_bytes = mem.pool_recycled_bytes();
  snap.memory.pool_resident_bytes = mem.pool_resident_bytes();
  snap.memory.pool_peak_resident_bytes = mem.pool_peak_resident_bytes();
  snap.memory.heap_allocs = mem.heap_allocs();
  return snap;
}

std::string ServerStats::ReportTable() const {
  Snapshot s = TakeSnapshot();
  std::string out;
  out += core::StrFormat(
      "serving stats (%.2fs uptime)\n"
      "  requests: accepted=%lld completed=%lld  throughput=%.1f req/s\n"
      "  rejected: shed-full=%lld shutdown=%lld deadline=%lld invalid=%lld\n"
      "  queue:    depth=%lld peak=%lld   batches=%lld   hot-swaps=%lld\n",
      s.elapsed_seconds, static_cast<long long>(s.accepted),
      static_cast<long long>(s.completed), s.requests_per_second,
      static_cast<long long>(s.rejected_full),
      static_cast<long long>(s.rejected_shutdown),
      static_cast<long long>(s.rejected_deadline),
      static_cast<long long>(s.rejected_invalid),
      static_cast<long long>(s.queue_depth),
      static_cast<long long>(s.peak_queue_depth),
      static_cast<long long>(s.batches), static_cast<long long>(s.hot_swaps));
  out += core::StrFormat("  %-14s %8s  %9s  %9s  %9s  %9s  %9s\n", "stage (ms)",
                         "count", "mean", "p50", "p90", "p99", "max");
  AppendStageRow(&out, "queue_wait", s.queue_wait);
  AppendStageRow(&out, "assembly", s.assembly);
  AppendStageRow(&out, "forward", s.forward);
  AppendStageRow(&out, "end_to_end", s.end_to_end);
  out += "  batch sizes: ";
  for (size_t i = 0; i < s.batch_sizes.size(); ++i) {
    out += core::StrFormat("%s%lldx%lld", i == 0 ? "" : " ",
                           static_cast<long long>(s.batch_sizes[i].first),
                           static_cast<long long>(s.batch_sizes[i].second));
  }
  out += "\n";
  const ResilienceSummary& r = s.resilience;
  out += core::StrFormat(
      "  degraded: none=%lld partial=%lld heavy=%lld   served: model=%lld "
      "var=%lld cache=%lld\n"
      "  resilience: var=%s swept_expired=%lld "
      "rejected_nonfinite=%lld rejected_wedged=%lld cached_sensors=%lld\n"
      "  breaker primary: state=%s trips=%lld probes=%lld rejected=%lld\n"
      "  breaker var:     state=%s trips=%lld probes=%lld rejected=%lld\n",
      static_cast<long long>(s.degraded_none),
      static_cast<long long>(s.degraded_partial),
      static_cast<long long>(s.degraded_heavy),
      static_cast<long long>(s.served_model),
      static_cast<long long>(s.served_var),
      static_cast<long long>(s.served_cache), r.var_available ? "on" : "off",
      static_cast<long long>(s.swept_expired),
      static_cast<long long>(s.rejected_nonfinite),
      static_cast<long long>(s.rejected_wedged),
      static_cast<long long>(r.cached_sensors), r.primary_breaker_state.c_str(),
      static_cast<long long>(r.primary_trips),
      static_cast<long long>(r.primary_probes),
      static_cast<long long>(r.primary_rejected), r.var_breaker_state.c_str(),
      static_cast<long long>(r.var_trips), static_cast<long long>(r.var_probes),
      static_cast<long long>(r.var_rejected));
  const MemorySummary& m = s.memory;
  out += core::StrFormat(
      "  memory:   live=%.1fMB peak=%.1fMB heap-allocs=%lld\n"
      "  pool:     hits=%lld misses=%lld (%.1f%% hit)  recycled=%.1fMB  "
      "resident=%.1fMB peak=%.1fMB\n",
      m.live_bytes / 1e6, m.peak_bytes / 1e6,
      static_cast<long long>(m.heap_allocs),
      static_cast<long long>(m.pool_hits),
      static_cast<long long>(m.pool_misses), m.pool_hit_rate * 100.0,
      m.pool_recycled_bytes / 1e6, m.pool_resident_bytes / 1e6,
      m.pool_peak_resident_bytes / 1e6);
  const OverloadSummary& o = s.overload;
  out += core::StrFormat(
      "  overload: admission=%s limit=%lld in_flight=%lld "
      "service_p50=%.3fms\n"
      "            shed: admission=%lld  predicted_late: submit=%lld "
      "dequeue=%lld\n",
      o.admission_enabled ? "on" : "off",
      static_cast<long long>(o.admission_limit),
      static_cast<long long>(o.in_flight), o.service_p50_ms,
      static_cast<long long>(s.shed_admission),
      static_cast<long long>(s.rejected_predicted_late),
      static_cast<long long>(s.swept_predicted_late));
  return out;
}

std::string ServerStats::ReportJson() const {
  Snapshot s = TakeSnapshot();
  std::string out = "{\n";
  out += core::StrFormat(
      "  \"elapsed_seconds\": %.6f,\n"
      "  \"accepted\": %lld,\n"
      "  \"completed\": %lld,\n"
      "  \"requests_per_second\": %.3f,\n"
      "  \"rejected_full\": %lld,\n"
      "  \"rejected_shutdown\": %lld,\n"
      "  \"rejected_deadline\": %lld,\n"
      "  \"rejected_invalid\": %lld,\n"
      "  \"queue_depth\": %lld,\n"
      "  \"peak_queue_depth\": %lld,\n"
      "  \"batches\": %lld,\n"
      "  \"hot_swaps\": %lld,\n",
      s.elapsed_seconds, static_cast<long long>(s.accepted),
      static_cast<long long>(s.completed), s.requests_per_second,
      static_cast<long long>(s.rejected_full),
      static_cast<long long>(s.rejected_shutdown),
      static_cast<long long>(s.rejected_deadline),
      static_cast<long long>(s.rejected_invalid),
      static_cast<long long>(s.queue_depth),
      static_cast<long long>(s.peak_queue_depth),
      static_cast<long long>(s.batches), static_cast<long long>(s.hot_swaps));
  out += "  \"stages\": {\n";
  AppendStageJson(&out, "queue_wait", s.queue_wait, true);
  AppendStageJson(&out, "assembly", s.assembly, true);
  AppendStageJson(&out, "forward", s.forward, true);
  AppendStageJson(&out, "end_to_end", s.end_to_end, false);
  out += "  },\n";
  out += "  \"batch_sizes\": {";
  for (size_t i = 0; i < s.batch_sizes.size(); ++i) {
    out += core::StrFormat("%s\"%lld\": %lld", i == 0 ? "" : ", ",
                           static_cast<long long>(s.batch_sizes[i].first),
                           static_cast<long long>(s.batch_sizes[i].second));
  }
  out += "},\n";
  const ResilienceSummary& r = s.resilience;
  out += core::StrFormat(
      "  \"degraded\": {\"none\": %lld, \"partial\": %lld, \"heavy\": %lld},\n"
      "  \"served_by\": {\"model\": %lld, \"var\": %lld, \"cache\": %lld},\n"
      "  \"resilience\": {\"var_available\": %s, "
      "\"swept_expired\": %lld, \"rejected_nonfinite\": %lld, "
      "\"rejected_wedged\": %lld, \"cached_sensors\": %lld, "
      "\"primary_breaker\": {\"state\": %s, \"trips\": %lld, "
      "\"probes\": %lld, \"rejected\": %lld}, "
      "\"var_breaker\": {\"state\": %s, \"trips\": %lld, "
      "\"probes\": %lld, \"rejected\": %lld}},\n",
      static_cast<long long>(s.degraded_none),
      static_cast<long long>(s.degraded_partial),
      static_cast<long long>(s.degraded_heavy),
      static_cast<long long>(s.served_model),
      static_cast<long long>(s.served_var),
      static_cast<long long>(s.served_cache),
      r.var_available ? "true" : "false",
      static_cast<long long>(s.swept_expired),
      static_cast<long long>(s.rejected_nonfinite),
      static_cast<long long>(s.rejected_wedged),
      static_cast<long long>(r.cached_sensors),
      core::JsonQuote(r.primary_breaker_state).c_str(),
      static_cast<long long>(r.primary_trips),
      static_cast<long long>(r.primary_probes),
      static_cast<long long>(r.primary_rejected),
      core::JsonQuote(r.var_breaker_state).c_str(),
      static_cast<long long>(r.var_trips), static_cast<long long>(r.var_probes),
      static_cast<long long>(r.var_rejected));
  const OverloadSummary& o = s.overload;
  out += core::StrFormat(
      "  \"overload\": {\"admission_enabled\": %s, \"admission_limit\": %lld, "
      "\"in_flight\": %lld, \"shed_admission\": %lld, "
      "\"rejected_predicted_late\": %lld, \"swept_predicted_late\": %lld, "
      "\"service_p50_ms\": %.6f},\n",
      o.admission_enabled ? "true" : "false",
      static_cast<long long>(o.admission_limit),
      static_cast<long long>(o.in_flight),
      static_cast<long long>(s.shed_admission),
      static_cast<long long>(s.rejected_predicted_late),
      static_cast<long long>(s.swept_predicted_late), o.service_p50_ms);
  const MemorySummary& m = s.memory;
  out += core::StrFormat(
      "  \"memory\": {\"live_bytes\": %lld, \"peak_bytes\": %lld, "
      "\"heap_allocs\": %lld, \"pool_hits\": %lld, \"pool_misses\": %lld, "
      "\"pool_hit_rate\": %.4f, \"pool_recycled_bytes\": %lld, "
      "\"pool_resident_bytes\": %lld, \"pool_peak_resident_bytes\": %lld}\n",
      static_cast<long long>(m.live_bytes),
      static_cast<long long>(m.peak_bytes),
      static_cast<long long>(m.heap_allocs),
      static_cast<long long>(m.pool_hits),
      static_cast<long long>(m.pool_misses), m.pool_hit_rate,
      static_cast<long long>(m.pool_recycled_bytes),
      static_cast<long long>(m.pool_resident_bytes),
      static_cast<long long>(m.pool_peak_resident_bytes));
  out += "}\n";
  return out;
}

}  // namespace sstban::serving
