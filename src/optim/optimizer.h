#ifndef SSTBAN_OPTIM_OPTIMIZER_H_
#define SSTBAN_OPTIM_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"

namespace sstban::optim {

// Adam (Kingma & Ba 2015) with bias correction — the de-facto optimizer for
// the STGNN literature; the paper trains with lr = 0.001. The decay rates
// and epsilon are Kingma & Ba's defaults (0.9, 0.999, 1e-8), and there is no
// weight decay. The optimizer keeps references (shared nodes) to the
// parameters it updates; Step() reads each parameter's accumulated gradient
// and updates its value in place.
class Adam {
 public:
  Adam(std::vector<autograd::Variable> params, float lr);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  // Applies one update using the current gradients. Parameters with no
  // accumulated gradient are skipped.
  void Step();

  // Clears gradients on all managed parameters.
  void ZeroGrad();

  const std::vector<autograd::Variable>& params() const { return params_; }

  // Checkpointing hooks: Adam's full state is the step count plus the
  // first/second moment estimates, in parameter order.
  int64_t step_count() const { return step_; }
  const std::vector<tensor::Tensor>& first_moments() const { return m_; }
  const std::vector<tensor::Tensor>& second_moments() const { return v_; }

  // Restores a state captured from an identically-constructed optimizer;
  // moment counts and shapes must match the managed parameters.
  void RestoreState(int64_t step, const std::vector<tensor::Tensor>& m,
                    const std::vector<tensor::Tensor>& v);

 private:
  std::vector<autograd::Variable> params_;
  float lr_;
  int64_t step_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

// Scales gradients so their global L2 norm is at most `max_norm`.
// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<autograd::Variable>& params, float max_norm);

// Stops training when the validation metric has not improved for `patience`
// consecutive epochs (the paper uses patience = 5).
class EarlyStopping {
 public:
  explicit EarlyStopping(int patience = 5);

  // Records an epoch's validation metric; returns true when training should
  // stop. Any decrease counts as an improvement.
  bool Update(float metric);

  bool improved_last_update() const { return improved_; }
  float best_metric() const { return best_; }
  int epochs_since_best() const { return stale_; }

  // Checkpointing hook: reinstates (best metric, epochs since best) so a
  // resumed run counts patience from exactly where the interrupted one
  // stopped.
  void RestoreState(float best_metric, int epochs_since_best);

 private:
  int patience_;
  float best_;
  int stale_ = 0;
  bool improved_ = false;
};

}  // namespace sstban::optim

#endif  // SSTBAN_OPTIM_OPTIMIZER_H_
