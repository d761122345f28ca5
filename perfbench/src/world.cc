#include "bench.h"
#include "data/synthetic_world.h"
#include "tensor/ops.h"

namespace perfbench {

namespace data = sstban::data;

int64_t World::num_windows() const {
  return dataset->num_steps() - config.input_len - config.output_len + 1;
}

World MakeWorld(int64_t num_nodes, uint64_t seed) {
  data::SyntheticWorldConfig world_config = data::Pems04LikeConfig();
  world_config.num_nodes = num_nodes;
  World world;
  world.dataset = std::make_shared<const data::TrafficDataset>(
      data::GenerateSyntheticWorld(world_config));
  const int64_t fit_steps = world.dataset->num_steps() * 6 / 10;
  world.normalizer = data::Normalizer::Fit(
      sstban::tensor::Slice(world.dataset->signals, 0, 0, fit_steps));

  // Table III's PEMS04 architecture (d = 16, h = 8, L = L' = 2, T' = N' = 3)
  // at P = Q = 12: three hours ahead at 15-minute slices.
  world.config = sstban::sstban::TableIiiConfig("pems04-24");
  world.config.input_len = 12;
  world.config.output_len = 12;
  world.config.num_nodes = num_nodes;
  world.config.num_features = world.dataset->num_features();
  world.config.steps_per_day = world.dataset->steps_per_day;
  world.config.seed = seed;
  return world;
}

}  // namespace perfbench
