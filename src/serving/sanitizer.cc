#include "serving/sanitizer.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/string_util.h"
#include "serving/request.h"

namespace sstban::serving {

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone:
      return "none";
    case DegradationLevel::kPartial:
      return "partial";
    case DegradationLevel::kHeavy:
      return "heavy";
  }
  return "unknown";
}

const char* ServedByName(ServedBy tier) {
  switch (tier) {
    case ServedBy::kModel:
      return "model";
    case ServedBy::kVarBaseline:
      return "var";
    case ServedBy::kCache:
      return "cache";
  }
  return "unknown";
}

InputSanitizer::InputSanitizer(SanitizerOptions options)
    : options_(std::move(options)) {
  for (int64_t channel : options_.degradable_channels) {
    SSTBAN_CHECK_GE(channel, 0);
  }
}

bool InputSanitizer::ChannelDegradable(int64_t channel) const {
  return std::find(options_.degradable_channels.begin(),
                   options_.degradable_channels.end(),
                   channel) != options_.degradable_channels.end();
}

core::StatusOr<SanitizeResult> InputSanitizer::Sanitize(
    tensor::Tensor* window) const {
  SSTBAN_CHECK(window != nullptr && window->rank() == 3);
  const int64_t p = window->dim(0), n = window->dim(1), c = window->dim(2);
  SanitizeResult result;
  result.total_positions = p * n;

  // Pass 1: find the first broken reading without touching anything — the
  // fully-observed hot path is a single scan, no allocation, no writes.
  float* data = window->data();
  const int64_t elems = p * n * c;
  int64_t first_bad = -1;
  for (int64_t i = 0; i < elems; ++i) {
    if (!std::isfinite(data[i])) {
      first_bad = i;
      break;
    }
  }
  if (first_bad < 0) return result;

  // Re-point the request at a private copy before scrubbing: tensors share
  // storage, and the broken window may still be the client's buffer.
  *window = window->Clone();
  data = window->data();

  // Something is broken: build the [P, N] keep mask, scrubbing degradable
  // readings and rejecting on the first strict one. Masking is per position
  // (the encoder's keep mask is [B, P, N]), so one broken degradable channel
  // hides every channel of that (step, sensor) — the same granularity the
  // self-supervised branch trains with.
  result.keep_pos = tensor::Tensor::Ones(tensor::Shape{p, n});
  float* keep = result.keep_pos.data();
  for (int64_t i = first_bad; i < elems; ++i) {
    if (std::isfinite(data[i])) continue;
    const int64_t channel = i % c;
    const int64_t position = i / c;  // flattened (step, sensor)
    if (!ChannelDegradable(channel)) {
      return core::Status::InvalidArgument(core::StrFormat(
          "non-finite reading at step %lld, sensor %lld, "
          "channel %lld (strict channel; mark it degradable to allow "
          "masked inference)",
          static_cast<long long>(position / n),
          static_cast<long long>(position % n),
          static_cast<long long>(channel)));
    }
    if (keep[position] != 0.0f) {
      keep[position] = 0.0f;
      ++result.masked_positions;
    }
    // Scrub so the value cannot poison normalization or a coalesced batch;
    // the masked pathway never reads it (any finite value * 0-mask = 0).
    data[i] = 0.0f;
  }
  if (result.masked_positions == result.total_positions) {
    return core::Status::InvalidArgument(
        "every position of the window is missing; nothing to condition on");
  }
  return result;
}

}  // namespace sstban::serving
