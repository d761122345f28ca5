#ifndef SSTBAN_STREAMING_STREAM_INGESTOR_H_
#define SSTBAN_STREAMING_STREAM_INGESTOR_H_

#include <cstdint>

#include "core/status.h"
#include "data/dataset.h"
#include "serving/sanitizer.h"
#include "tensor/tensor.h"

namespace sstban::streaming {

struct StreamIngestorOptions {
  int64_t num_nodes = 0;
  int64_t num_features = 0;
  int64_t input_len = 12;
  int64_t output_len = 12;
  int64_t steps_per_day = 96;
  // Value policy at the append boundary. Channels listed as degradable are
  // scrubbed; any non-finite reading in a strict channel rejects the whole
  // slice, so corrupt readings never reach the ring.
  serving::SanitizerOptions sanitizer;
};

// Append-only ingestion boundary for live sensor readings. One slice = the
// [N, C] readings of every sensor at one absolute slice index (slices since
// the Monday-00:00 origin, the serving calendar convention). The ingestor
//   - validates geometry and timestamps (appends must advance the logical
//     clock by exactly one; regressions, gaps, and negative steps are
//     rejected as out-of-range timestamps),
//   - applies serving::InputSanitizer channel rules to the values, and
//   - retains the last capacity() slices in a preallocated ring, from which
//     it assembles sliding windows for inference and adaptation snapshots.
// The accepted-clean-slice path performs no heap allocation (gated by
// bench_online_adaptation). Thread-compatible: callers serialize appends.
class StreamIngestor {
 public:
  explicit StreamIngestor(StreamIngestorOptions options);

  // Appends the [N, C] slice observed at absolute index `step`. Failpoint
  // `ingest_append` fires first (chaos hook). Errors:
  //   InvalidArgument      — wrong geometry (node/feature count changed), or
  //                          a strict-channel value violation;
  //   OutOfRange           — step is negative, regresses, skips ahead, or
  //                          is INT64_MAX (the clock cannot pass it).
  // Geometry and timestamp rejections leave everything untouched. A value
  // rejection consumes its (legitimate) timestamp so the feed keeps flowing,
  // but punches a hole in window continuity: the ring restarts, because
  // retained history must stay temporally contiguous.
  core::Status Append(const tensor::Tensor& slice, int64_t step);

  // Slices currently retained (<= capacity()).
  int64_t size() const { return count_; }
  // Ring size in slices: enough for adaptation snapshots,
  // 8 * (input_len + output_len), and at least two days.
  int64_t capacity() const { return capacity_; }
  // The step the next Append must carry; 0 before the first append (the
  // first accepted slice pins the clock, which then advances by one per
  // accepted slice).
  int64_t next_step() const { return next_step_; }
  bool started() const { return started_; }

  int64_t accepted() const { return accepted_; }
  int64_t rejected_values() const { return rejected_values_; }
  int64_t rejected_timestamps() const { return rejected_timestamps_; }
  int64_t rejected_geometry() const { return rejected_geometry_; }
  // Degradable readings scrubbed-and-masked so far (the slice itself is
  // kept).
  int64_t scrubbed_positions() const { return scrubbed_positions_; }

  // The newest fully-observed [P, N, C] window (a fresh copy), for serving.
  // `first_step` (if non-null) receives the window's first slice index.
  // NotFound until input_len slices are retained.
  core::StatusOr<tensor::Tensor> LatestWindow(int64_t* first_step) const;

  // Materializes the newest `slices` retained slices (0 = everything) as a
  // TrafficDataset with self-consistent calendar features, ready for
  // data::WindowDataset. NotFound until input_len + output_len slices are
  // retained. The returned dataset owns copies; the ring keeps appending.
  core::StatusOr<data::TrafficDataset> Snapshot(int64_t slices = 0) const;

  const StreamIngestorOptions& options() const { return options_; }

 private:
  StreamIngestorOptions options_;
  int64_t capacity_;
  serving::InputSanitizer sanitizer_;
  tensor::Tensor ring_;     // [capacity, N, C]
  tensor::Tensor staging_;  // [1, N, C] scratch the sanitizer runs against
  bool started_ = false;
  int64_t next_step_ = 0;  // logical clock: step the next append must carry
  int64_t count_ = 0;      // retained slices
  int64_t accepted_ = 0;
  int64_t rejected_values_ = 0;
  int64_t rejected_timestamps_ = 0;
  int64_t rejected_geometry_ = 0;
  int64_t scrubbed_positions_ = 0;
};

}  // namespace sstban::streaming

#endif  // SSTBAN_STREAMING_STREAM_INGESTOR_H_
