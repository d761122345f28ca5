#ifndef SSTBAN_CORE_CPU_FEATURES_H_
#define SSTBAN_CORE_CPU_FEATURES_H_

namespace sstban::core {

// CPUID-derived capabilities of the machine we are running on. Detection is
// performed once; the result never changes over the process lifetime.
struct CpuFeatures {
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
};

// Raw hardware capabilities (ignores the kill switch below).
const CpuFeatures& DetectCpuFeatures();

// The SIMD tier the kernel layer dispatches on. Exactly one tier is active
// for the whole process: every kernel-table lookup (tensor/simd/kernels.h)
// resolves against it, so all arithmetic within a process is internally
// consistent — the precondition for the bitwise determinism contracts
// (DESIGN.md §8/§14).
enum class SimdLevel {
  kScalar,  // portable C fallback (also the SSTBAN_SIMD=off kill switch)
  kAvx2,    // AVX2 + FMA micro-kernels
};

// The active tier: hardware support gated by the SSTBAN_SIMD environment
// variable ("off"/"0"/"scalar" force kScalar; unset/"on"/"auto" pick the
// best supported tier). Resolved once on first call.
SimdLevel ActiveSimdLevel();

const char* SimdLevelName(SimdLevel level);

// Test/bench-only override of the active tier. Requesting kAvx2 on hardware
// without AVX2+FMA is ignored; returns the level now in effect. Not
// thread-safe against concurrent kernel execution — call it only from a
// quiesced process, and note that mixing tiers within one logical
// computation voids the bitwise reproducibility contract.
SimdLevel SetSimdLevelForTesting(SimdLevel level);

}  // namespace sstban::core

#endif  // SSTBAN_CORE_CPU_FEATURES_H_
