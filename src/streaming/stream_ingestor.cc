#include "streaming/stream_ingestor.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/check.h"
#include "core/failpoint.h"

namespace sstban::streaming {

namespace t = ::sstban::tensor;

StreamIngestor::StreamIngestor(StreamIngestorOptions options)
    : options_(std::move(options)),
      capacity_(std::max<int64_t>(
          8 * (options_.input_len + options_.output_len),
          2 * options_.steps_per_day)),
      sanitizer_(options_.sanitizer) {
  SSTBAN_CHECK_GT(options_.num_nodes, 0);
  SSTBAN_CHECK_GT(options_.num_features, 0);
  SSTBAN_CHECK_GT(options_.input_len, 0);
  SSTBAN_CHECK_GT(options_.output_len, 0);
  SSTBAN_CHECK_GT(options_.steps_per_day, 0);
  ring_ = t::Tensor::Zeros(
      t::Shape{capacity_, options_.num_nodes, options_.num_features});
  staging_ =
      t::Tensor::Zeros(t::Shape{1, options_.num_nodes, options_.num_features});
}

core::Status StreamIngestor::Append(const t::Tensor& slice, int64_t step) {
  SSTBAN_FAILPOINT("ingest_append");
  const int64_t n = options_.num_nodes, c = options_.num_features;

  if (!slice.defined() || slice.rank() != 2 || slice.dim(0) != n ||
      slice.dim(1) != c) {
    ++rejected_geometry_;
    return core::Status::InvalidArgument(
        "slice geometry does not match the ingest stream (expected [" +
        std::to_string(n) + ", " + std::to_string(c) + "])");
  }
  // Timestamp discipline: the logical clock is pinned by the first accepted
  // slice and must advance by exactly one thereafter. A regressed, repeated,
  // or gapped step means the feed glitched; accepting it would corrupt the
  // calendar features of every window cut from the ring. The largest int64
  // step is refused too: the clock could not advance past it.
  if (step < 0 || step == std::numeric_limits<int64_t>::max() ||
      (started_ && step != next_step_)) {
    ++rejected_timestamps_;
    return core::Status::OutOfRange(
        "out-of-range timestamp " + std::to_string(step) + " (expected " +
        std::to_string(started_ ? next_step_ : 0) + " or later start)");
  }

  // Sanitize a staged copy so a rejected slice never touches the ring.
  std::memcpy(staging_.data(), slice.data(),
              static_cast<size_t>(n * c) * sizeof(float));
  core::StatusOr<serving::SanitizeResult> sanitized =
      sanitizer_.Sanitize(&staging_);
  if (!sanitized.ok()) {
    ++rejected_values_;
    // The reading is bad but the timestamp is legitimate: consume it so the
    // feed keeps flowing, and punch a hole in window continuity — retained
    // history must stay temporally contiguous, so the ring restarts.
    if (started_) {
      next_step_ = step + 1;
      count_ = 0;
    }
    return sanitized.status();
  }
  scrubbed_positions_ += sanitized.value().masked_positions;

  // Commit to the ring.
  const int64_t row = accepted_ % capacity_;
  std::memcpy(ring_.data() + row * n * c, staging_.data(),
              static_cast<size_t>(n * c) * sizeof(float));
  started_ = true;
  next_step_ = step + 1;
  ++accepted_;
  count_ = std::min(count_ + 1, capacity_);
  return core::Status::Ok();
}

core::StatusOr<t::Tensor> StreamIngestor::LatestWindow(
    int64_t* first_step) const {
  const int64_t p = options_.input_len;
  if (count_ < p) {
    return core::Status::NotFound("only " + std::to_string(count_) +
                                  " slices retained, window needs " +
                                  std::to_string(p));
  }
  const int64_t n = options_.num_nodes, c = options_.num_features;
  t::Tensor out = t::Tensor::Empty(t::Shape{p, n, c});
  for (int64_t i = 0; i < p; ++i) {
    const int64_t logical = accepted_ - p + i;
    const int64_t row = logical % capacity_;
    std::memcpy(out.data() + i * n * c, ring_.data() + row * n * c,
                static_cast<size_t>(n * c) * sizeof(float));
  }
  if (first_step != nullptr) *first_step = next_step_ - p;
  return out;
}

core::StatusOr<data::TrafficDataset> StreamIngestor::Snapshot(
    int64_t slices) const {
  const int64_t need = options_.input_len + options_.output_len;
  int64_t take = slices <= 0 ? count_ : std::min(slices, count_);
  if (take < need) {
    return core::Status::NotFound(
        "snapshot needs at least input_len + output_len slices (" +
        std::to_string(take) + "/" + std::to_string(need) + ")");
  }
  const int64_t n = options_.num_nodes, c = options_.num_features;
  data::TrafficDataset dataset;
  dataset.name = "stream";
  dataset.steps_per_day = options_.steps_per_day;
  dataset.signals = t::Tensor::Empty(t::Shape{take, n, c});
  dataset.time_of_day.resize(static_cast<size_t>(take));
  dataset.day_of_week.resize(static_cast<size_t>(take));
  for (int64_t i = 0; i < take; ++i) {
    const int64_t logical = accepted_ - take + i;
    const int64_t row = logical % capacity_;
    std::memcpy(dataset.signals.data() + i * n * c, ring_.data() + row * n * c,
                static_cast<size_t>(n * c) * sizeof(float));
    const int64_t step = next_step_ - take + i;
    dataset.time_of_day[static_cast<size_t>(i)] = step % options_.steps_per_day;
    dataset.day_of_week[static_cast<size_t>(i)] =
        (step / options_.steps_per_day) % 7;
  }
  return dataset;
}

}  // namespace sstban::streaming
