#include "serving/overload/brownout.h"

#include <utility>

#include "core/failpoint.h"
#include "core/memory_tracker.h"

namespace sstban::serving {

const char* BrownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kNormal:
      return "normal";
    case BrownoutLevel::kFallbackLow:
      return "fallback-low";
    case BrownoutLevel::kShedLow:
      return "shed-low";
  }
  return "unknown";
}

namespace {

int64_t TrackedFootprintBytes() {
  return core::MemoryTracker::Global().resident_footprint_bytes();
}

}  // namespace

BrownoutController::BrownoutController(BrownoutOptions options)
    : options_(std::move(options)) {
  last_transition_ = options_.now ? options_.now() : Clock::now();
}

BrownoutLevel BrownoutController::Update() {
  if (!options_.enabled) return BrownoutLevel::kNormal;
  const int64_t bytes =
      options_.probe ? options_.probe() : TrackedFootprintBytes();
  probe_bytes_.store(bytes, std::memory_order_relaxed);

  std::unique_lock<std::mutex> lock(mutex_);
  const int level = level_.load(std::memory_order_relaxed);
  int target = 0;
  for (int l = static_cast<int>(options_.enter_bytes.size()); l >= 1; --l) {
    if (bytes >= options_.enter_bytes[static_cast<size_t>(l - 1)]) {
      target = l;
      break;
    }
  }
  const Clock::time_point now = options_.now ? options_.now() : Clock::now();
  if (target > level) {
    // Escalate immediately (possibly several levels): protection that waits
    // for a dwell timer defeats its purpose.
    level_.store(target, std::memory_order_relaxed);
    steps_up_.fetch_add(target - level, std::memory_order_relaxed);
    last_transition_ = now;
    SSTBAN_FAILPOINT_NOTIFY("brownout_step");
  } else if (level > 0) {
    // De-escalate one level at a time, only once the footprint has dropped
    // below the *exit* watermark of the current level and the dwell has
    // elapsed — together these make the ladder hysteretic, not flappy.
    const double exit_bytes =
        options_.exit_fraction *
        static_cast<double>(options_.enter_bytes[static_cast<size_t>(level - 1)]);
    if (static_cast<double>(bytes) < exit_bytes &&
        now - last_transition_ >= options_.min_dwell) {
      level_.store(level - 1, std::memory_order_relaxed);
      steps_down_.fetch_add(1, std::memory_order_relaxed);
      last_transition_ = now;
      SSTBAN_FAILPOINT_NOTIFY("brownout_step");
    }
  }
  return static_cast<BrownoutLevel>(level_.load(std::memory_order_relaxed));
}

BrownoutController::Snapshot BrownoutController::TakeSnapshot() const {
  Snapshot snap;
  snap.enabled = options_.enabled;
  snap.level = level();
  snap.probe_bytes = probe_bytes_.load(std::memory_order_relaxed);
  snap.steps_up = steps_up_.load(std::memory_order_relaxed);
  snap.steps_down = steps_down_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace sstban::serving
