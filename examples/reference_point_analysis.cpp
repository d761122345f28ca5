// Interpretability probe for §IV-B's claim that bottleneck reference
// points behave like learned cluster centers. We build a toy population of
// nodes drawn from three distinct pattern groups, train a spatial
// BottleneckAttention (R = 3 reference points) to autoencode the node
// features through the bottleneck, then read out each node's soft
// assignment to the reference points and compare the hard assignments with
// the ground-truth groups.

#include <cstdio>
#include <vector>

#include "autograd/ops.h"
#include "core/rng.h"
#include "optim/optimizer.h"
#include "sstban/bottleneck_attention.h"
#include "tensor/ops.h"

int main() {
  namespace ag = ::sstban::autograd;
  namespace t = ::sstban::tensor;

  const int64_t kNodes = 18, kFeatures = 8, kGroups = 3;
  sstban::core::Rng rng(42);

  // Three well-separated group prototypes; each node is its group's
  // prototype plus small noise.
  std::vector<t::Tensor> prototypes;
  for (int64_t g = 0; g < kGroups; ++g) {
    prototypes.push_back(
        t::Tensor::RandomNormal(t::Shape{kFeatures}, rng, 0.0f, 2.0f));
  }
  t::Tensor x(t::Shape{1, kNodes, kFeatures});
  std::vector<int64_t> truth(kNodes);
  for (int64_t v = 0; v < kNodes; ++v) {
    truth[v] = v % kGroups;
    for (int64_t f = 0; f < kFeatures; ++f) {
      x.at({0, v, f}) =
          prototypes[truth[v]].at({f}) + rng.NextGaussian(0.0f, 0.15f);
    }
  }

  // Autoencode through the bottleneck: all node-to-node interaction must
  // pass through the 3 reference points.
  sstban::sstban::BottleneckAttention attn(kFeatures, kFeatures, kGroups,
                                           /*num_heads=*/1, rng);
  sstban::optim::Adam optimizer(attn.Parameters(), 1e-2f);
  ag::Variable input(x);
  for (int step = 0; step < 800; ++step) {
    ag::Variable recon = attn.Forward(input);
    ag::Variable loss = ag::MseLoss(recon, input);
    attn.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    if (step % 200 == 0) {
      std::printf("step %3d  reconstruction MSE %.4f\n", step, loss.item());
    }
  }

  // Read the soft assignments: second-stage attention [1, N, R].
  t::Tensor assignments = attn.Assignments(input);

  std::printf("\nnode | true group | attention over reference points | argmax\n");
  // votes[r][g] = nodes of true group g whose argmax is reference point r.
  std::vector<std::vector<int64_t>> votes(kGroups,
                                          std::vector<int64_t>(kGroups, 0));
  for (int64_t v = 0; v < kNodes; ++v) {
    int64_t best = 0;
    for (int64_t r = 1; r < kGroups; ++r) {
      if (assignments.at({0, v, r}) > assignments.at({0, v, best})) best = r;
    }
    votes[best][truth[v]]++;
    std::printf("%4lld | %10lld | %.2f  %.2f  %.2f               | ref %lld\n",
                static_cast<long long>(v), static_cast<long long>(truth[v]),
                assignments.at({0, v, 0}), assignments.at({0, v, 1}),
                assignments.at({0, v, 2}), static_cast<long long>(best));
  }
  // Standard cluster purity: each predicted cluster contributes its
  // dominant true group's count. Collapsed clusters are penalized.
  int64_t agreements = 0;
  for (int64_t r = 0; r < kGroups; ++r) {
    int64_t best = 0;
    for (int64_t g = 0; g < kGroups; ++g) best = std::max(best, votes[r][g]);
    agreements += best;
  }
  std::printf("\ncluster purity: %.0f%% (%lld / %lld; 33%% would be chance "
              "with 3 balanced groups)\n",
              100.0 * static_cast<double>(agreements) / kNodes,
              static_cast<long long>(agreements),
              static_cast<long long>(kNodes));
  std::printf("High purity supports the paper's reading of reference points "
              "as cluster centers;\nthe soft assignment rows above show the "
              "group structure even when argmaxes collide.\n");
  return 0;
}
