#ifndef SSTBAN_SERVING_FALLBACK_H_
#define SSTBAN_SERVING_FALLBACK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/var_model.h"
#include "core/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "serving/circuit_breaker.h"
#include "serving/request.h"

namespace sstban::serving {

// Last-known-good forecast per sensor: every successful batch refreshes each
// sensor's most recent [Q, C] forecast column; the terminal fallback tier
// re-serves those columns. Sensors never forecast successfully (or after a
// geometry change) degrade further to persistence — the sensor's last
// observed reading repeated across the horizon — so assembly is infallible.
class LastGoodCache {
 public:
  // Records a successful [Q, N, C] raw-scale forecast. `logical_step` is the
  // first forecast step's absolute slice index (the producing request's
  // first_step) — the timestamp staleness is measured against.
  void Update(const tensor::Tensor& forecast, int64_t logical_step = 0);

  // Builds a [Q, N, C] forecast for a request whose raw [P, N, C] window is
  // `recent`: the cached column where one exists *and is fresh enough*,
  // persistence otherwise. `now_step` is the requesting window's first_step;
  // a cached entry older than `max_age_steps` (< 0 = unbounded) is refused
  // and the request falls to the persistence floor — a dead model must not
  // keep serving an arbitrarily stale forecast forever. When the cached entry
  // answers, `*age_out` (if non-null) is set to its age in steps (>= 0);
  // persistence reports -1.
  tensor::Tensor Assemble(const tensor::Tensor& recent, int64_t output_len,
                          int64_t now_step = 0, int64_t max_age_steps = -1,
                          int64_t* age_out = nullptr) const;

  int64_t cached_sensors() const;
  // Logical step of the cached forecast; -1 before the first Update.
  int64_t cached_step() const;

 private:
  mutable std::mutex mutex_;
  tensor::Tensor last_;  // [Q, N, C]; undefined before the first Update
  int64_t last_step_ = -1;
};

struct FallbackOptions {
  // Oldest last-known-good entry (in logical slice steps, relative to the
  // requesting window's first_step) the cache tier may serve; -1 = unbounded
  // (the pre-staleness behavior). Beyond the horizon requests fall to the
  // persistence floor.
  int64_t max_cache_age_steps = -1;
};

// The degraded tiers behind the primary model: SSTBAN -> VAR baseline ->
// last-known-good cache. The batcher consults primary_breaker() before the
// model pass; when the pass fails (fault, exception, non-finite output) or
// the breaker is open, Run executes the remaining tiers for the whole batch.
// Each tier has its own circuit breaker; the cache tier has none because it
// cannot fail. Thread-compatible: Run is only called from the batcher
// thread, the cache and breakers are internally locked for probes/stats.
class FallbackChain {
 public:
  explicit FallbackChain(FallbackOptions options);

  // Installs a *fitted* VAR baseline (see VarModel::FitSeries). Without one
  // the VAR tier is skipped. Must be called before the server starts.
  void SetVarBaseline(std::unique_ptr<baselines::VarModel> var);

  // Runs the chain for one assembled batch (batch.x is the scrubbed raw
  // [B, P, N, C] with calendar features). On success fills one [Q, N, C]
  // slice per request and reports which tier answered. `normalizer` may be
  // nullptr when no model snapshot could be pinned (registry fault before
  // the first install) — the VAR tier needs the serving normalization stats,
  // so it is skipped and the cache tier answers. `first_steps` carries each
  // request's first_step (the cache tier's logical clock for staleness;
  // empty = treat every request as step 0). When `cache_ages` is non-null it
  // is filled with one entry per request: the served cache entry's age in
  // steps, or -1 when the answer did not come from the cached column. Fails
  // only when the serve_fallback failpoint injects an error — the chaos
  // tests' hook for "the fallback itself broke".
  core::Status Run(const data::Batch& batch, const data::Normalizer* normalizer,
                   int64_t output_len, const std::vector<int64_t>& first_steps,
                   std::vector<tensor::Tensor>* slices, ServedBy* served_by,
                   std::vector<int64_t>* cache_ages = nullptr);

  bool has_var_baseline() const { return var_ != nullptr; }
  CircuitBreaker& primary_breaker() { return primary_breaker_; }
  const CircuitBreaker& primary_breaker() const { return primary_breaker_; }
  CircuitBreaker& var_breaker() { return var_breaker_; }
  const CircuitBreaker& var_breaker() const { return var_breaker_; }
  LastGoodCache& cache() { return cache_; }
  const LastGoodCache& cache() const { return cache_; }

 private:
  FallbackOptions options_;
  CircuitBreaker primary_breaker_;
  CircuitBreaker var_breaker_;
  std::unique_ptr<baselines::VarModel> var_;
  LastGoodCache cache_;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_FALLBACK_H_
