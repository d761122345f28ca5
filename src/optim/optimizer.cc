#include "optim/optimizer.h"

#include <cmath>
#include <limits>

#include "core/check.h"

namespace sstban::optim {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

Adam::Adam(std::vector<autograd::Variable> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    SSTBAN_CHECK(p.requires_grad()) << "optimizer given a non-trainable tensor";
    m_.push_back(tensor::Tensor::Zeros(p.shape()));
    v_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++step_;
  float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(step_));
  float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    int64_t n = p.size();
    for (int64_t j = 0; j < n; ++j) {
      m[j] = kBeta1 * m[j] + (1.0f - kBeta1) * g[j];
      v[j] = kBeta2 * v[j] + (1.0f - kBeta2) * g[j] * g[j];
      float m_hat = m[j] / bias1;
      float v_hat = v[j] / bias2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

void Adam::RestoreState(int64_t step, const std::vector<tensor::Tensor>& m,
                        const std::vector<tensor::Tensor>& v) {
  SSTBAN_CHECK_GE(step, 0);
  SSTBAN_CHECK_EQ(m.size(), m_.size());
  SSTBAN_CHECK_EQ(v.size(), v_.size());
  step_ = step;
  for (size_t i = 0; i < m_.size(); ++i) {
    m_[i].CopyFrom(m[i]);
    v_[i].CopyFrom(v[i]);
  }
}

float ClipGradNorm(const std::vector<autograd::Variable>& params, float max_norm) {
  double total_sq = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    for (int64_t j = 0; j < p.size(); ++j) {
      total_sq += static_cast<double>(g[j]) * g[j];
    }
  }
  float norm = static_cast<float>(std::sqrt(total_sq));
  if (norm > max_norm && norm > 0.0f) {
    float scale = max_norm / norm;
    for (autograd::Variable p : params) {
      if (!p.has_grad()) continue;
      float* g = p.mutable_grad().data();
      for (int64_t j = 0; j < p.size(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

EarlyStopping::EarlyStopping(int patience)
    : patience_(patience), best_(std::numeric_limits<float>::infinity()) {}

void EarlyStopping::RestoreState(float best_metric, int epochs_since_best) {
  SSTBAN_CHECK_GE(epochs_since_best, 0);
  best_ = best_metric;
  stale_ = epochs_since_best;
  improved_ = false;
}

bool EarlyStopping::Update(float metric) {
  improved_ = metric < best_;
  if (improved_) {
    best_ = metric;
    stale_ = 0;
  } else {
    ++stale_;
  }
  return stale_ >= patience_;
}

}  // namespace sstban::optim
