#include "data/dataset.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "tensor/ops.h"

namespace sstban::data {

WindowDataset::WindowDataset(std::shared_ptr<const TrafficDataset> dataset,
                             int64_t input_len, int64_t output_len)
    : dataset_(std::move(dataset)), input_len_(input_len), output_len_(output_len) {
  SSTBAN_CHECK(dataset_ != nullptr);
  SSTBAN_CHECK_GT(input_len_, 0);
  SSTBAN_CHECK_GT(output_len_, 0);
  SSTBAN_CHECK_GT(num_windows(), 0)
      << "dataset too short:" << dataset_->num_steps() << "steps for P ="
      << input_len_ << ", Q =" << output_len_;
}

Batch Batch::Item(int64_t b) const {
  SSTBAN_CHECK(b >= 0 && b < batch_size()) << "item" << b;
  auto rows = [b](const tensor::Tensor& t) {
    return t.defined() ? tensor::Slice(t, 0, b, 1) : tensor::Tensor();
  };
  auto entries = [&](const std::vector<int64_t>& v) {
    const int64_t len = static_cast<int64_t>(v.size()) / batch_size();
    return std::vector<int64_t>(v.begin() + b * len, v.begin() + (b + 1) * len);
  };
  return Batch{.x = rows(x),
               .y = rows(y),
               .tod_in = entries(tod_in),
               .dow_in = entries(dow_in),
               .tod_out = entries(tod_out),
               .dow_out = entries(dow_out),
               .mask = rows(mask)};
}

Batch WindowDataset::MakeBatch(const std::vector<int64_t>& window_indices) const {
  SSTBAN_CHECK(!window_indices.empty());
  int64_t batch = static_cast<int64_t>(window_indices.size());
  int64_t nodes = dataset_->num_nodes();
  int64_t feats = dataset_->num_features();
  int64_t slice = nodes * feats;

  Batch out;
  out.x = tensor::Tensor(tensor::Shape{batch, input_len_, nodes, feats});
  out.y = tensor::Tensor(tensor::Shape{batch, output_len_, nodes, feats});
  out.tod_in.resize(batch * input_len_);
  out.dow_in.resize(batch * input_len_);
  out.tod_out.resize(batch * output_len_);
  out.dow_out.resize(batch * output_len_);

  const float* src = dataset_->signals.data();
  float* px = out.x.data();
  float* py = out.y.data();
  for (int64_t b = 0; b < batch; ++b) {
    int64_t start = window_indices[b];
    SSTBAN_CHECK(start >= 0 && start < num_windows())
        << "window index" << start << "out of range" << num_windows();
    std::memcpy(px + b * input_len_ * slice, src + start * slice,
                static_cast<size_t>(input_len_ * slice) * sizeof(float));
    std::memcpy(py + b * output_len_ * slice,
                src + (start + input_len_) * slice,
                static_cast<size_t>(output_len_ * slice) * sizeof(float));
    for (int64_t p = 0; p < input_len_; ++p) {
      out.tod_in[b * input_len_ + p] = dataset_->time_of_day[start + p];
      out.dow_in[b * input_len_ + p] = dataset_->day_of_week[start + p];
    }
    for (int64_t q = 0; q < output_len_; ++q) {
      out.tod_out[b * output_len_ + q] =
          dataset_->time_of_day[start + input_len_ + q];
      out.dow_out[b * output_len_ + q] =
          dataset_->day_of_week[start + input_len_ + q];
    }
  }
  return out;
}

SplitIndices ChronologicalSplit(const WindowDataset& windows,
                                double train_fraction, double val_fraction) {
  SSTBAN_CHECK(train_fraction > 0 && val_fraction >= 0 &&
               train_fraction + val_fraction < 1.0);
  int64_t n = windows.num_windows();
  auto train_end = static_cast<int64_t>(n * train_fraction);
  auto val_end = static_cast<int64_t>(n * (train_fraction + val_fraction));
  SplitIndices split;
  for (int64_t i = 0; i < train_end; ++i) split.train.push_back(i);
  for (int64_t i = train_end; i < val_end; ++i) split.val.push_back(i);
  for (int64_t i = val_end; i < n; ++i) split.test.push_back(i);
  SSTBAN_CHECK(!split.train.empty() && !split.test.empty());
  return split;
}

std::vector<int64_t> KeepLatestFraction(const std::vector<int64_t>& train,
                                        double fraction) {
  SSTBAN_CHECK(fraction > 0.0 && fraction <= 1.0);
  auto keep = static_cast<int64_t>(static_cast<double>(train.size()) * fraction);
  keep = std::max<int64_t>(keep, 1);
  return std::vector<int64_t>(train.end() - keep, train.end());
}

}  // namespace sstban::data
