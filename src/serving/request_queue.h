#ifndef SSTBAN_SERVING_REQUEST_QUEUE_H_
#define SSTBAN_SERVING_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "core/status.h"
#include "serving/request.h"

namespace sstban::serving {

// Why a Push was refused. Distinguishes load shedding (kFull — transient,
// retry later) from shutdown (kClosed — permanent for this process) so the
// server can count and report them separately instead of folding both into
// one undifferentiated Unavailable.
enum class PushReject { kNone = 0, kFull = 1, kClosed = 2, kExpired = 3 };

// Bounded MPMC queue of forecast requests with backpressure: when the queue
// is full, Push returns Unavailable immediately instead of buffering without
// bound — the client sheds load rather than the server. Producers never
// block; the consumer (the batcher) blocks waiting for work.
class RequestQueue {
 public:
  explicit RequestQueue(int64_t capacity);

  // Enqueues `req`, or returns Unavailable when the queue is at capacity or
  // has been closed — each with a distinct message and, when `cause` is
  // given, a distinct PushReject. Expired requests are rejected with
  // DeadlineExceeded before they occupy a slot. The promise inside `req` is
  // untouched on failure so the caller can complete it with the returned
  // status.
  core::Status Push(PendingRequest* req, PushReject* cause = nullptr);

  // Blocks until an item is available or the queue is closed and drained;
  // nullopt means closed-and-empty (the consumer should exit).
  std::optional<PendingRequest> PopBlocking();

  // Waits until `until` for an item; nullopt on timeout (or closed+empty).
  std::optional<PendingRequest> PopUntil(Clock::time_point until);

  // Removes every request whose deadline has passed as of `now` and hands it
  // to `reject` for terminal completion, without letting it reach a batch.
  // The batcher runs this right before assembling each batch, so a request
  // that expired while an earlier (slow) batch held the worker never wastes
  // a slot in a model pass. Returns the number of requests swept.
  int64_t SweepExpired(Clock::time_point now,
                       const std::function<void(PendingRequest&&)>& reject);

  // After Close, Push fails with Unavailable; queued items remain poppable
  // so a graceful shutdown can drain them.
  void Close();
  bool closed() const;

  int64_t depth() const;
  int64_t capacity() const { return capacity_; }

 private:
  const int64_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<PendingRequest> items_;
  bool closed_ = false;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_REQUEST_QUEUE_H_
