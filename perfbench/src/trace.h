#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into the library; each has a name, a start and
// end, the id of the span that caused it (-1 for a root) and the id of the
// request or step it belongs to. Slots are preallocated, so recording is an
// atomic increment and a store; spans past capacity are counted and dropped.
// Any number of threads may record; read only after they have finished.
class Tracer {
 public:
  explicit Tracer(int64_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Reserves an id for a span whose children are recorded before it ends.
  // -1 when full; Write and children with parent -1 then still work.
  int64_t Reserve();
  // `name` must outlive the tracer (a string literal).
  void Write(int64_t id, const char* name, Clock::time_point start,
             Clock::time_point end, int64_t parent, int64_t request);
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent, int64_t request) {
    int64_t id = Reserve();
    Write(id, name, start, end, parent, request);
    return id;
  }

  // Per span name: how many, total duration, and self time (duration minus
  // the part of it covered by the span's children).
  struct NameTotals {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<NameTotals> Totals() const;

  // Mean duration of the spans called `name`; 0 when there are none.
  double MeanMs(const std::string& name) const;

  // Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

  int64_t recorded() const;
  int64_t dropped() const { return dropped_.load(); }

 private:
  struct Span {
    const char* name = nullptr;  // null: reserved but never written
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = -1;
  };

  std::vector<Span> spans_;
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> dropped_{0};
  Clock::time_point origin_;
};

// Records a span around a scope when `tracer` is non-null; otherwise costs
// one branch. Children name this span through id().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             int64_t request)
      : tracer_(tracer), name_(name), parent_(parent), request_(request) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Reserve();
      start_ = Clock::now();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Write(id_, name_, start_, Clock::now(), parent_, request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t parent_;
  int64_t request_;
  int64_t id_ = -1;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
