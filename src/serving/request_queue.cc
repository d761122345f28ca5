#include "serving/request_queue.h"

#include "core/check.h"
#include "core/string_util.h"

namespace sstban::serving {

RequestQueue::RequestQueue(int64_t capacity) : capacity_(capacity) {
  SSTBAN_CHECK_GT(capacity, 0);
}

core::Status RequestQueue::Push(PendingRequest* req, PushReject* cause) {
  SSTBAN_CHECK(req != nullptr);
  PushReject why = PushReject::kNone;
  if (cause != nullptr) *cause = why;
  if (req->Expired(Clock::now())) {
    if (cause != nullptr) *cause = PushReject::kExpired;
    return core::Status::DeadlineExceeded("deadline passed before enqueue");
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) {
      why = PushReject::kClosed;
    } else if (static_cast<int64_t>(items_.size()) >= capacity_) {
      why = PushReject::kFull;
    } else {
      items_.push_back(std::move(*req));
    }
  }
  if (why != PushReject::kNone) {
    if (cause != nullptr) *cause = why;
    return why == PushReject::kClosed
               ? core::Status::Unavailable(
                     "request queue is shut down (server stopping)")
               : core::Status::Unavailable(core::StrFormat(
                     "request queue is full (capacity %lld): load shed",
                     static_cast<long long>(capacity_)));
  }
  not_empty_.notify_one();
  return core::Status::Ok();
}

std::optional<PendingRequest> RequestQueue::PopBlocking() {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return std::nullopt;
  PendingRequest req = std::move(items_.front());
  items_.pop_front();
  return req;
}

std::optional<PendingRequest> RequestQueue::PopUntil(Clock::time_point until) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait_until(lock, until,
                        [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return std::nullopt;
  PendingRequest req = std::move(items_.front());
  items_.pop_front();
  return req;
}

int64_t RequestQueue::SweepExpired(
    Clock::time_point now,
    const std::function<void(PendingRequest&&)>& reject) {
  // Collect under the lock, complete promises outside it: a promise's
  // continuation must never run while the queue mutex is held.
  std::vector<PendingRequest> expired;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto it = items_.begin(); it != items_.end();) {
      if (it->Expired(now)) {
        expired.push_back(std::move(*it));
        it = items_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (PendingRequest& req : expired) reject(std::move(req));
  return static_cast<int64_t>(expired.size());
}

void RequestQueue::Close() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

bool RequestQueue::closed() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return closed_;
}

int64_t RequestQueue::depth() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return static_cast<int64_t>(items_.size());
}

}  // namespace sstban::serving
