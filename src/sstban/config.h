#ifndef SSTBAN_SSTBAN_CONFIG_H_
#define SSTBAN_SSTBAN_CONFIG_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "sstban/masking.h"

namespace sstban::sstban {

// Hyper-parameters of the SSTBAN model, following the paper's notation
// (Table I) and the per-scenario settings of Table III.
struct SstbanConfig {
  // -- Problem geometry ---------------------------------------------------
  int64_t num_nodes = 0;      // N
  int64_t input_len = 24;     // P
  int64_t output_len = 24;    // Q
  int64_t num_features = 1;   // C
  int64_t steps_per_day = 96; // time-of-day vocabulary for the STE block

  // -- Network (Table III, "Encoder/Decoder" columns) -----------------------
  int64_t hidden_dim = 16;     // d
  int64_t num_heads = 8;       // h
  int64_t encoder_blocks = 2;  // L
  int64_t decoder_blocks = 2;  // L'
  int64_t recon_blocks = 1;    // L'' ("a narrow decoder is enough", §V-C)
  int64_t temporal_refs = 3;   // T' reference points
  int64_t spatial_refs = 3;    // N' reference points
  // false replaces every bottleneck attention with full quadratic
  // self-attention — the "w/o STBA" ablation of Table VI.
  bool use_bottleneck = true;
  // false drops the spatial branch of every STBA block entirely (blocks
  // compute T + residual): each node's forecast then depends only on its own
  // history, i.e. the spatial receptive field is node-local. This is the
  // temporal-only ablation, not the paper's model; no served path sets it.
  bool spatial_mixing = true;

  // -- Self-supervised branch (Table III, "Self-supervised Task") ------------
  bool self_supervised = true;
  int64_t patch_len = 12;  // l_m
  double mask_rate = 0.3;  // alpha_m
  double lambda = 0.1;     // weight of the alignment loss
  MaskStrategy mask_strategy = MaskStrategy::kSpacetimeAgnostic;

  uint64_t seed = 1;

  core::Status Validate() const;
};

// Presets reproducing Table III rows at our scaled-down node counts. The
// scenario key is "<dataset>-<steps>", e.g. "seattle-36", "pems08-24".
// CHECK-fails on an unknown key.
SstbanConfig TableIiiConfig(const std::string& scenario);

}  // namespace sstban::sstban

#endif  // SSTBAN_SSTBAN_CONFIG_H_
