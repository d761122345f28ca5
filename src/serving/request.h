#ifndef SSTBAN_SERVING_REQUEST_H_
#define SSTBAN_SERVING_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>

#include "core/status.h"
#include "tensor/tensor.h"

namespace sstban::serving {

using Clock = std::chrono::steady_clock;

// What a client hands to ForecastServer::Submit: one raw [P, N, C] recent
// window in the server's geometry, the absolute slice index of its first row
// (for calendar features), and an optional deadline after which the client
// no longer wants the answer.
struct ForecastRequest {
  tensor::Tensor recent;  // [P, N, C] raw (denormalized) signals
  int64_t first_step = 0;
  std::optional<Clock::time_point> deadline;
};

// How much of the request's input survived sanitization. Partial means some
// positions were masked-missing and the encoder ran in degraded mode; heavy
// means more than 30% of positions were missing — the answer leans mostly on
// learned structure, not observations.
enum class DegradationLevel { kNone = 0, kPartial = 1, kHeavy = 2 };

// Which tier of the fallback chain produced the forecast.
enum class ServedBy { kModel = 0, kVarBaseline = 1, kCache = 2 };

const char* DegradationLevelName(DegradationLevel level);
const char* ServedByName(ServedBy tier);

// A successful answer: the forecast plus how it was produced. `degradation`
// and `masked_positions` describe the *input* (sanitizer verdict);
// `served_by` describes the *path* (primary model, VAR baseline, or the
// last-known-good cache after breaker/fault fallback). `model_version` is 0
// when the primary model was bypassed.
struct ForecastResponse {
  tensor::Tensor forecast;  // [Q, N, C] raw-scale
  DegradationLevel degradation = DegradationLevel::kNone;
  ServedBy served_by = ServedBy::kModel;
  int64_t masked_positions = 0;  // of input_len * num_nodes
  int64_t model_version = 0;
  // Age, in logical slice steps (request first_step minus the step the cached
  // forecast was produced at), of the last-known-good entry that answered.
  // -1 unless served_by == kCache *and* the cached column was used — the
  // persistence floor reports -1 because it derives from the request's own
  // window, not from stored state.
  int64_t cache_age_steps = -1;

  bool degraded() const {
    return degradation != DegradationLevel::kNone ||
           served_by != ServedBy::kModel;
  }
};

// Every request resolves to exactly one terminal: an annotated forecast
// (possibly degraded) or one of {Unavailable, DeadlineExceeded,
// InvalidArgument} — never a hang.
using ForecastResult = core::StatusOr<ForecastResponse>;
using ForecastFuture = std::future<ForecastResult>;

// A queued request: the client's payload plus the promise that delivers the
// result back and the timestamp backing the queue-wait latency stat. When
// the sanitizer flagged missing readings, `keep_pos` is the [P, N] observed
// mask (empty tensor = fully observed) and batch.x holds the scrubbed
// window (non-finite readings zeroed so they cannot poison the batch).
struct PendingRequest {
  ForecastRequest request;
  std::promise<ForecastResult> promise;
  Clock::time_point enqueued_at;
  tensor::Tensor keep_pos;  // [P, N] 1=observed; undefined when clean
  DegradationLevel degradation = DegradationLevel::kNone;
  int64_t masked_positions = 0;

  bool Expired(Clock::time_point now) const {
    return request.deadline.has_value() && now > *request.deadline;
  }
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_REQUEST_H_
