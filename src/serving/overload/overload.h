#ifndef SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_
#define SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_

#include <cstdint>

#include "serving/overload/admission.h"
#include "serving/overload/brownout.h"
#include "serving/overload/estimator.h"

namespace sstban::serving {

// Deadline-propagation knobs (tentpole layer 2). A request is rejected —
// at Submit and again at dequeue — when its remaining deadline is smaller
// than safety_factor x the current p50 estimate of the relevant stage, so a
// doomed request never occupies a queue slot or a batch slot.
struct DeadlineOptions {
  bool enabled = true;
  double safety_factor = 1.0;
  // Estimator shape (see ServiceTimeEstimator): no predictions are rejected
  // until min_samples completions have been observed.
  int64_t window = 64;
  int64_t min_samples = 16;
};

// Everything the overload-control subsystem needs, hung off ServerOptions.
// Defaults come from the environment:
//   SSTBAN_ADMISSION            off | on | key=value list
//                               (limit, min, max, tolerance, increase,
//                                decrease) e.g. "limit=32,tolerance=1.5"
//   SSTBAN_BROWNOUT_WATERMARKS  off | "<fallback_mb>[,<shed_mb>]" enter
//                               watermarks in MB (one value sets both)
struct OverloadOptions {
  AdmissionOptions admission;
  DeadlineOptions deadline;
  BrownoutOptions brownout;

  // Turns every layer off (pure pre-overload-control behavior; the bench's
  // "admission off" arm and the big red switch for experiments).
  void DisableAll() {
    admission.enabled = false;
    deadline.enabled = false;
    brownout.enabled = false;
  }
};

// Reads SSTBAN_ADMISSION / SSTBAN_BROWNOUT_WATERMARKS once per call.
OverloadOptions ResolveOverloadOptions();

// The per-server bundle: one admission controller, the two stage estimators
// behind deadline propagation, and the brownout ladder. ForecastServer owns
// one and shares a pointer with its Batcher.
class OverloadControl {
 public:
  explicit OverloadControl(const OverloadOptions& options)
      : options_(options),
        admission_(options.admission),
        submit_estimator_(options.deadline.window, options.deadline.min_samples),
        service_estimator_(options.deadline.window,
                           options.deadline.min_samples),
        brownout_(options.brownout) {}

  const OverloadOptions& options() const { return options_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  // Submit-time gate: full end-to-end (queue wait + assembly + forward).
  ServiceTimeEstimator& submit_estimator() { return submit_estimator_; }
  // Dequeue-time gate: batch execution only (the work still ahead of a
  // request that has already been popped).
  ServiceTimeEstimator& service_estimator() { return service_estimator_; }
  BrownoutController& brownout() { return brownout_; }
  const BrownoutController& brownout() const { return brownout_; }

 private:
  OverloadOptions options_;
  AdmissionController admission_;
  ServiceTimeEstimator submit_estimator_;
  ServiceTimeEstimator service_estimator_;
  BrownoutController brownout_;
};

}  // namespace sstban::serving

#endif  // SSTBAN_SERVING_OVERLOAD_OVERLOAD_H_
