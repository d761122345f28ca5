#include "serving/fallback.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <utility>

#include "core/check.h"
#include "core/failpoint.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"

namespace sstban::serving {

namespace t = ::sstban::tensor;

void LastGoodCache::Update(const t::Tensor& forecast, int64_t logical_step) {
  SSTBAN_CHECK_EQ(forecast.rank(), 3);
  std::lock_guard<std::mutex> lock(mutex_);
  last_ = forecast;
  last_step_ = logical_step;
}

t::Tensor LastGoodCache::Assemble(const t::Tensor& recent, int64_t output_len,
                                  int64_t now_step, int64_t max_age_steps,
                                  int64_t* age_out) const {
  SSTBAN_CHECK_EQ(recent.rank(), 3);
  if (age_out != nullptr) *age_out = -1;
  const int64_t p = recent.dim(0), n = recent.dim(1), c = recent.dim(2);
  t::Tensor cached;
  int64_t cached_at = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cached = last_;  // shares storage; published tensors are never mutated
    cached_at = last_step_;
  }
  // A clock that ran backwards (replayed request) counts as age 0, not as a
  // forecast from the future.
  const int64_t age = cached_at < 0 ? 0 : std::max<int64_t>(0, now_step - cached_at);
  const bool fresh = max_age_steps < 0 || age <= max_age_steps;
  const bool usable = cached.defined() && cached.dim(0) == output_len &&
                      cached.dim(1) == n && cached.dim(2) == c && fresh;
  if (usable) {
    if (age_out != nullptr) *age_out = age;
    return cached;
  }

  // Persistence: each sensor's most recent finite observation, held flat
  // across the horizon. A sensor with no finite reading at all forecasts 0.
  t::Tensor out = t::Tensor::Empty(t::Shape{output_len, n, c});
  const float* in = recent.data();
  float* dst = out.data();
  for (int64_t j = 0; j < n * c; ++j) {
    float value = 0.0f;
    for (int64_t step = p - 1; step >= 0; --step) {
      float v = in[step * n * c + j];
      if (std::isfinite(v)) {
        value = v;
        break;
      }
    }
    for (int64_t q = 0; q < output_len; ++q) dst[q * n * c + j] = value;
  }
  return out;
}

int64_t LastGoodCache::cached_sensors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_.defined() ? last_.dim(1) : 0;
}

int64_t LastGoodCache::cached_step() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_step_;
}

FallbackChain::FallbackChain(FallbackOptions options) : options_(options) {}

void FallbackChain::SetVarBaseline(std::unique_ptr<baselines::VarModel> var) {
  SSTBAN_CHECK(var == nullptr || var->fitted())
      << "fallback VAR baseline must be fitted (VarModel::FitSeries)";
  var_ = std::move(var);
}

core::Status FallbackChain::Run(const data::Batch& batch,
                                const data::Normalizer* normalizer,
                                int64_t output_len,
                                const std::vector<int64_t>& first_steps,
                                std::vector<t::Tensor>* slices,
                                ServedBy* served_by,
                                std::vector<int64_t>* cache_ages) {
  SSTBAN_CHECK(slices != nullptr && served_by != nullptr);
  SSTBAN_FAILPOINT("serve_fallback");
  const int64_t b = batch.x.dim(0);
  const int64_t n = batch.x.dim(2), c = batch.x.dim(3);
  SSTBAN_CHECK(first_steps.empty() ||
               first_steps.size() == static_cast<size_t>(b));
  slices->assign(static_cast<size_t>(b), t::Tensor());
  if (cache_ages != nullptr) cache_ages->assign(static_cast<size_t>(b), -1);

  // -- Tier 2: VAR baseline ---------------------------------------------------
  // Cheap (closed-form linear), batched, and immune to whatever corrupted
  // the primary: its coefficients never hot-swap.
  if (var_ != nullptr && normalizer != nullptr &&
      batch.x.dim(1) >= var_->lag() && var_breaker_.Allow()) {
    bool ok = true;
    t::Tensor denorm;
    try {
      denorm = training::RunBatchedInference(var_.get(), *normalizer, batch);
      ok = !t::HasNonFinite(denorm);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      var_breaker_.RecordSuccess();
      for (int64_t i = 0; i < b; ++i) {
        (*slices)[static_cast<size_t>(i)] =
            t::Slice(denorm, 0, i, 1).Reshape(t::Shape{output_len, n, c});
      }
      *served_by = ServedBy::kVarBaseline;
      return core::Status::Ok();
    }
    var_breaker_.RecordFailure();
  }

  // -- Tier 3: last-known-good cache / persistence (infallible) ---------------
  const int64_t p = batch.x.dim(1);
  for (int64_t i = 0; i < b; ++i) {
    t::Tensor recent =
        t::Slice(batch.x, 0, i, 1).Reshape(t::Shape{p, n, c});
    const int64_t now =
        first_steps.empty() ? 0 : first_steps[static_cast<size_t>(i)];
    int64_t age = -1;
    (*slices)[static_cast<size_t>(i)] = cache_.Assemble(
        recent, output_len, now, options_.max_cache_age_steps, &age);
    if (cache_ages != nullptr) (*cache_ages)[static_cast<size_t>(i)] = age;
  }
  *served_by = ServedBy::kCache;
  return core::Status::Ok();
}

}  // namespace sstban::serving
