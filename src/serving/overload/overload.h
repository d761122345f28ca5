#ifndef SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_
#define SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_

#include "serving/overload/admission.h"
#include "serving/overload/estimator.h"

namespace sstban::serving {

// Deadline propagation, the second overload layer. A request is rejected — at
// Submit and again at dequeue — when its remaining deadline is smaller than
// the current p50 estimate of the relevant stage, so a doomed request never
// occupies a queue slot or a batch slot. Each estimate is the median of the
// last 64 samples and stays silent until 16 have been observed (see
// ServiceTimeEstimator).
struct DeadlineOptions {
  bool enabled = true;
};

// Everything the overload-control subsystem needs, hung off ServerOptions.
struct OverloadOptions {
  AdmissionOptions admission;
  DeadlineOptions deadline;

  // Turns both layers off (pure pre-overload-control behavior; the bench's
  // "admission off" arm).
  void DisableAll() {
    admission.enabled = false;
    deadline.enabled = false;
  }
};

// The per-server bundle: one admission controller and the two stage
// estimators behind deadline propagation. ForecastServer owns one and shares
// a pointer with its Batcher.
class OverloadControl {
 public:
  explicit OverloadControl(const OverloadOptions& options)
      : options_(options),
        admission_(options.admission),
        submit_estimator_(/*window=*/64, /*min_samples=*/16),
        service_estimator_(/*window=*/64, /*min_samples=*/16) {}

  const OverloadOptions& options() const { return options_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  // Submit-time gate: full end-to-end (queue wait + assembly + forward).
  ServiceTimeEstimator& submit_estimator() { return submit_estimator_; }
  // Dequeue-time gate: batch execution only (the work still ahead of a
  // request that has already been popped).
  ServiceTimeEstimator& service_estimator() { return service_estimator_; }

 private:
  OverloadOptions options_;
  AdmissionController admission_;
  ServiceTimeEstimator submit_estimator_;
  ServiceTimeEstimator service_estimator_;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_
