#include "sstban/ste.h"

#include "autograd/ops.h"
#include "core/check.h"

namespace sstban::sstban {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

SpatialTemporalEmbedding::SpatialTemporalEmbedding(int64_t num_nodes,
                                                   int64_t steps_per_day,
                                                   int64_t dim, core::Rng& rng)
    : num_nodes_(num_nodes), steps_per_day_(steps_per_day), dim_(dim) {
  spatial_ = std::make_unique<nn::Embedding>(num_nodes, dim, rng);
  int64_t onehot_dim = steps_per_day + 7;
  temporal_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{onehot_dim, dim, dim}, rng, nn::Activation::kRelu);
  RegisterModule("spatial", spatial_.get());
  RegisterModule("temporal_mlp", temporal_mlp_.get());
}

ag::Variable SpatialTemporalEmbedding::Forward(const std::vector<int64_t>& tod,
                                               const std::vector<int64_t>& dow,
                                               int64_t batch, int64_t len) const {
  int64_t rows = batch * len;
  SSTBAN_CHECK_EQ(static_cast<int64_t>(tod.size()), rows);
  SSTBAN_CHECK_EQ(static_cast<int64_t>(dow.size()), rows);
  int64_t onehot_dim = steps_per_day_ + 7;
  t::Tensor onehot = t::Tensor::Zeros(t::Shape{rows, onehot_dim});
  float* po = onehot.data();
  for (int64_t r = 0; r < rows; ++r) {
    SSTBAN_CHECK(tod[r] >= 0 && tod[r] < steps_per_day_);
    SSTBAN_CHECK(dow[r] >= 0 && dow[r] < 7);
    po[r * onehot_dim + tod[r]] = 1.0f;
    po[r * onehot_dim + steps_per_day_ + dow[r]] = 1.0f;
  }
  // Temporal part: [B*len, d] -> [B, len, 1, d].
  ag::Variable temporal = temporal_mlp_->Forward(ag::Variable(onehot));
  temporal = ag::Reshape(temporal, t::Shape{batch, len, 1, dim_});
  // Spatial part: [N, d] -> [1, 1, N, d]; broadcasting sum yields
  // E in [B, len, N, d].
  ag::Variable spatial =
      ag::Reshape(spatial_->weight(), t::Shape{1, 1, num_nodes_, dim_});
  return ag::Add(temporal, spatial);
}

}  // namespace sstban::sstban
