#ifndef SSTBAN_SERVING_OVERLOAD_BROWNOUT_H_
#define SSTBAN_SERVING_OVERLOAD_BROWNOUT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>

#include "serving/request.h"

namespace sstban::serving {

// Memory-pressure degrade ladder, mildest first:
//   kNormal      - full service.
//   kFallbackLow - low-criticality (batch / what-if) requests skip the
//                  primary model and serve from the VAR/cache fallback tiers.
//   kShedLow     - low-criticality requests are shed outright.
// Interactive traffic keeps full service at every level.
enum class BrownoutLevel : int {
  kNormal = 0,
  kFallbackLow = 1,
  kShedLow = 2,
};

const char* BrownoutLevelName(BrownoutLevel level);

struct BrownoutOptions {
  bool enabled = true;
  // Enter watermarks (bytes of tracked resident footprint) for kFallbackLow
  // and kShedLow. Defaults are far above anything the tests or benches
  // allocate, so brownout is inert until configured
  // (SSTBAN_BROWNOUT_WATERMARKS).
  std::array<int64_t, 2> enter_bytes = {int64_t{7} << 30, int64_t{8} << 30};
  // A level exits only once the footprint drops below
  // exit_fraction * enter_bytes[level]: the gap between enter and exit is
  // the hysteresis band that stops flapping across a watermark.
  double exit_fraction = 0.85;
  // Minimum dwell at a level before stepping back down (debounces sawtooth
  // allocation patterns that dip below the exit watermark between batches).
  std::chrono::milliseconds min_dwell{250};
  // Injectable memory probe (bytes); null = MemoryTracker::Global()'s
  // resident footprint (live tensor bytes + pool free lists).
  std::function<int64_t()> probe;
  // Injectable clock for hysteresis tests; null = Clock::now.
  std::function<Clock::time_point()> now;
};

// Steps the server through the degrade ladder from memory watermarks.
// Transitions are hysteretic in both space (exit watermark below enter) and
// time (min_dwell before any step down), step UP is immediate (possibly
// multiple levels at once — protection must not lag), step DOWN is one level
// per dwell so recovery is gradual and fully reversible.
class BrownoutController {
 public:
  explicit BrownoutController(BrownoutOptions options);

  // Re-evaluates the probe and returns the (possibly changed) level.
  // Cheap; called from Submit and from the batcher loop. Thread-safe.
  BrownoutLevel Update();

  // Last computed level without re-probing.
  BrownoutLevel level() const {
    return static_cast<BrownoutLevel>(level_.load(std::memory_order_relaxed));
  }

  struct Snapshot {
    bool enabled = false;
    BrownoutLevel level = BrownoutLevel::kNormal;
    int64_t probe_bytes = 0;  // as of the last Update
    int64_t steps_up = 0;
    int64_t steps_down = 0;
  };
  Snapshot TakeSnapshot() const;

 private:
  const BrownoutOptions options_;
  std::atomic<int> level_{0};
  std::atomic<int64_t> probe_bytes_{0};
  std::atomic<int64_t> steps_up_{0}, steps_down_{0};
  std::mutex mutex_;  // serializes transitions
  Clock::time_point last_transition_;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_BROWNOUT_H_
