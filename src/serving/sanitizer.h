#ifndef SSTBAN_SERVING_SANITIZER_H_
#define SSTBAN_SERVING_SANITIZER_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"

namespace sstban::serving {

// Input-boundary policy for broken sensor readings. NaN and Inf are the only
// missing-reading markers; a window whose every position is missing is always
// rejected, since no observation is left to condition on.
struct SanitizerOptions {
  // Channels whose NaN/Inf readings may be routed through the model's masking
  // mechanism instead of rejecting the request. Channels NOT listed here are
  // strict: any non-finite value in them is InvalidArgument. Empty (the
  // default) = strict everywhere.
  std::vector<int64_t> degradable_channels;
};

// The sanitizer's verdict on one [P, N, C] window.
struct SanitizeResult {
  // [P, N] with 1 = observed; an undefined tensor when nothing was masked
  // (the clean hot path allocates nothing).
  tensor::Tensor keep_pos;
  int64_t masked_positions = 0;
  int64_t total_positions = 0;
  bool clean() const { return masked_positions == 0; }
};

// Detects NaN/Inf readings at the serving boundary. For degradable
// channels it scrubs the offending values (so they cannot poison a coalesced
// batch: 0 * mask is 0, NaN * mask is NaN) and emits the [P, N] keep mask
// the encoder consumes for degraded-mode inference. For strict channels it
// returns InvalidArgument naming the first offending index.
//
// A clean window is a single read-only scan (no allocation, no writes). A
// broken one is re-pointed at a private clone before scrubbing, so the
// client's storage is never mutated. Thread-compatible: no shared state.
class InputSanitizer {
 public:
  explicit InputSanitizer(SanitizerOptions options);

  core::StatusOr<SanitizeResult> Sanitize(tensor::Tensor* window) const;

  const SanitizerOptions& options() const { return options_; }

 private:
  SanitizerOptions options_;
  // Dense per-channel degradable flags, sized lazily per window's C.
  bool ChannelDegradable(int64_t channel) const;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_SANITIZER_H_
