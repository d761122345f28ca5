#include "sstban/stba_block.h"

#include "autograd/ops.h"
#include "core/check.h"
#include "tensor/ops.h"

namespace sstban::sstban {

namespace ag = ::sstban::autograd;
namespace t = ::sstban::tensor;

StbaBlock::StbaBlock(int64_t dim, int64_t num_heads, int64_t temporal_refs,
                     int64_t spatial_refs, bool use_bottleneck, core::Rng& rng,
                     bool spatial_mixing)
    : dim_(dim), use_bottleneck_(use_bottleneck),
      spatial_mixing_(spatial_mixing) {
  int64_t in_dim = 2 * dim;  // Z = H || E
  if (use_bottleneck_) {
    temporal_bottleneck_ = std::make_unique<BottleneckAttention>(
        in_dim, dim, temporal_refs, num_heads, rng);
    RegisterModule("tba", temporal_bottleneck_.get());
    if (spatial_mixing_) {
      spatial_bottleneck_ = std::make_unique<BottleneckAttention>(
          in_dim, dim, spatial_refs, num_heads, rng);
      RegisterModule("sba", spatial_bottleneck_.get());
    }
  } else {
    temporal_full_ =
        std::make_unique<FullSelfAttention>(in_dim, dim, num_heads, rng);
    RegisterModule("tba_full", temporal_full_.get());
    if (spatial_mixing_) {
      spatial_full_ =
          std::make_unique<FullSelfAttention>(in_dim, dim, num_heads, rng);
      RegisterModule("sba_full", spatial_full_.get());
    }
  }
}

ag::Variable StbaBlock::Forward(const ag::Variable& h, const ag::Variable& e,
                                const t::Tensor* keep_mask) const {
  SSTBAN_CHECK_EQ(h.rank(), 4);
  SSTBAN_CHECK(h.shape() == e.shape())
      << "H" << h.shape().ToString() << "vs E" << e.shape().ToString();
  int64_t batch = h.dim(0), time = h.dim(1), nodes = h.dim(2);
  SSTBAN_CHECK_EQ(h.dim(3), dim_);

  ag::Variable z = ag::Concat({h, e}, -1);  // [B, T, N, 2d]

  // Temporal branch: attention over T for every (batch, node).
  ag::Variable zt = ag::Permute(z, {0, 2, 1, 3});  // [B, N, T, 2d]
  zt = ag::Reshape(zt, t::Shape{batch * nodes, time, 2 * dim_});
  t::Tensor mask_t;
  if (keep_mask != nullptr) {
    SSTBAN_CHECK(keep_mask->shape() == (t::Shape{batch, time, nodes}));
    mask_t = t::Permute(*keep_mask, {0, 2, 1})
                 .Reshape(t::Shape{batch * nodes, time});
  }
  ag::Variable temporal =
      ApplyTemporal(zt, keep_mask ? &mask_t : nullptr);  // [B*N, T, d]
  temporal = ag::Reshape(temporal, t::Shape{batch, nodes, time, dim_});
  temporal = ag::Permute(temporal, {0, 2, 1, 3});  // [B, T, N, d]

  // Temporal-only variant: no cross-node mixing, H^(l) = T + H.
  if (!spatial_mixing_) return ag::Add(temporal, h);

  // Spatial branch: attention over N for every (batch, time slice).
  ag::Variable zs = ag::Reshape(z, t::Shape{batch * time, nodes, 2 * dim_});
  t::Tensor mask_s;
  if (keep_mask != nullptr) {
    mask_s = keep_mask->Reshape(t::Shape{batch * time, nodes});
  }
  ag::Variable spatial =
      ApplySpatial(zs, keep_mask ? &mask_s : nullptr);  // [B*T, N, d]
  spatial = ag::Reshape(spatial, t::Shape{batch, time, nodes, dim_});

  // H^(l) = T + S, plus a residual connection (§IV-C1).
  return ag::Add(ag::Add(temporal, spatial), h);
}

ag::Variable StbaBlock::ApplyTemporal(const ag::Variable& z,
                                      const t::Tensor* key_mask) const {
  return use_bottleneck_ ? temporal_bottleneck_->Forward(z, key_mask)
                         : temporal_full_->Forward(z, key_mask);
}

ag::Variable StbaBlock::ApplySpatial(const ag::Variable& z,
                                     const t::Tensor* key_mask) const {
  return use_bottleneck_ ? spatial_bottleneck_->Forward(z, key_mask)
                         : spatial_full_->Forward(z, key_mask);
}

}  // namespace sstban::sstban
