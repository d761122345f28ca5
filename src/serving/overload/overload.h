#ifndef SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_
#define SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_

#include <cstdint>

#include "serving/overload/admission.h"
#include "serving/overload/estimator.h"

namespace sstban::serving {

// The server's one overload switch, hung off ServerOptions. Off, Submit
// admits every valid request and the batcher runs every unexpired one: the
// behavior before overload control, and bench_overload's control arm.
struct OverloadOptions {
  bool enabled = true;
};

// The per-server bundle: the admission rule and the one estimator it and the
// dequeue check read, the p50 of the last 64 batch executions (silent until
// 16). ForecastServer owns one and shares a pointer with its Batcher.
class OverloadControl {
 public:
  OverloadControl(const OverloadOptions& options, int64_t max_batch)
      : options_(options),
        admission_(options.enabled, max_batch),
        service_estimator_(/*window=*/64, /*min_samples=*/16) {}

  const OverloadOptions& options() const { return options_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  // Batch execution time: fed once per batch by the batcher.
  ServiceTimeEstimator& service_estimator() { return service_estimator_; }

 private:
  OverloadOptions options_;
  AdmissionController admission_;
  ServiceTimeEstimator service_estimator_;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_
