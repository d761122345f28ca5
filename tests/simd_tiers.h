#ifndef SSTBAN_TESTS_SIMD_TIERS_H_
#define SSTBAN_TESTS_SIMD_TIERS_H_

#include <vector>

#include "core/cpu_features.h"
#include "tensor/simd/kernels.h"

namespace sstban::testing {

// The kernel tiers this host can run: always scalar, plus AVX2 when the
// build carries it and the CPU has AVX2 and FMA.
inline std::vector<core::SimdLevel> AvailableLevels() {
  std::vector<core::SimdLevel> levels = {core::SimdLevel::kScalar};
  if (tensor::simd::internal::Avx2Kernels() != nullptr &&
      core::DetectCpuFeatures().avx2 && core::DetectCpuFeatures().fma) {
    levels.push_back(core::SimdLevel::kAvx2);
  }
  return levels;
}

// RAII tier override so a failing assertion cannot leak a forced level.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(core::SimdLevel level)
      : previous_(core::ActiveSimdLevel()),
        active_(core::SetSimdLevelForTesting(level)) {}
  ~ScopedSimdLevel() { core::SetSimdLevelForTesting(previous_); }
  core::SimdLevel active() const { return active_; }

 private:
  core::SimdLevel previous_;
  core::SimdLevel active_;
};

}  // namespace sstban::testing

#endif  // SSTBAN_TESTS_SIMD_TIERS_H_
