#ifndef SSTBAN_DATA_DATASET_H_
#define SSTBAN_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/traffic_graph.h"
#include "tensor/tensor.h"

namespace sstban::data {

// A full traffic recording: the sensor graph, the signal tensor
// [T, N, C], and calendar features per time slice. This mirrors the
// structure of the Seattle Loop / PeMS archives the paper evaluates on.
struct TrafficDataset {
  std::string name;
  std::shared_ptr<graph::TrafficGraph> graph;
  tensor::Tensor signals;            // [T, N, C]
  std::vector<int64_t> time_of_day;  // [T], in [0, steps_per_day)
  std::vector<int64_t> day_of_week;  // [T], in [0, 7)
  int64_t steps_per_day = 0;

  int64_t num_steps() const { return signals.dim(0); }
  int64_t num_nodes() const { return signals.dim(1); }
  int64_t num_features() const { return signals.dim(2); }
};

// One supervised example: P input slices and Q target slices, plus the
// calendar indices the spatial-temporal embedding consumes.
struct Window {
  int64_t start;  // input covers [start, start+P), target [start+P, start+P+Q)
};

// A batch of windows materialized as tensors.
struct Batch {
  tensor::Tensor x;       // [B, P, N, C] raw input signals
  tensor::Tensor y;       // [B, Q, N, C] raw target signals
  std::vector<int64_t> tod_in;   // [B*P] time-of-day per input slice
  std::vector<int64_t> dow_in;   // [B*P] day-of-week per input slice
  std::vector<int64_t> tod_out;  // [B*Q]
  std::vector<int64_t> dow_out;  // [B*Q]
  // [B, P, N, C] training mask drawn ahead of the loss; empty, the loss
  // draws its own (TrafficModel::DrawItemMask).
  tensor::Tensor mask;

  int64_t batch_size() const { return x.dim(0); }
  int64_t input_len() const { return x.dim(1); }
  int64_t output_len() const { return y.dim(1); }

  // Window `b` as a batch of one (copies).
  Batch Item(int64_t b) const;
};

// Sliding-window view over a TrafficDataset, split chronologically.
// The paper splits each dataset 6:2:2 (train:val:test) by time and sets
// P = Q in {24, 36, 48}.
class WindowDataset {
 public:
  WindowDataset(std::shared_ptr<const TrafficDataset> dataset, int64_t input_len,
                int64_t output_len);

  int64_t num_windows() const {
    return dataset_->num_steps() - input_len_ - output_len_ + 1;
  }
  int64_t input_len() const { return input_len_; }
  int64_t output_len() const { return output_len_; }
  const TrafficDataset& dataset() const { return *dataset_; }

  // Materializes the given window indices (each in [0, num_windows())).
  Batch MakeBatch(const std::vector<int64_t>& window_indices) const;

 private:
  std::shared_ptr<const TrafficDataset> dataset_;
  int64_t input_len_;
  int64_t output_len_;
};

// Chronological train/validation/test split of window start indices with the
// given fractions (defaults to the paper's 6:2:2). Windows never straddle a
// split boundary.
struct SplitIndices {
  std::vector<int64_t> train;
  std::vector<int64_t> val;
  std::vector<int64_t> test;
};
SplitIndices ChronologicalSplit(const WindowDataset& windows,
                                double train_fraction = 0.6,
                                double val_fraction = 0.2);

// Drops the earliest windows so only `fraction` of the original training
// windows remain (the paper's Fig. 5 robustness protocol: data is removed
// "starting from the earliest time slice" while val/test stay fixed).
std::vector<int64_t> KeepLatestFraction(const std::vector<int64_t>& train,
                                        double fraction);

}  // namespace sstban::data

#endif  // SSTBAN_DATA_DATASET_H_
