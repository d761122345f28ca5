#include "core/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <cpuid.h>
#define SSTBAN_HAVE_CPUID 1
#endif

namespace sstban::core {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#ifdef SSTBAN_HAVE_CPUID
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  unsigned max_leaf = __get_cpuid_max(0, nullptr);
  if (max_leaf >= 1) {
    __cpuid(1, eax, ebx, ecx, edx);
    f.avx = (ecx & bit_AVX) != 0;
    f.fma = (ecx & bit_FMA) != 0;
    // OSXSAVE + XGETBV: the OS must save/restore the ymm state, otherwise
    // executing AVX faults even though CPUID advertises it.
    bool osxsave = (ecx & bit_OSXSAVE) != 0;
    bool ymm_enabled = false;
    if (osxsave) {
      unsigned lo = 0, hi = 0;
      __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
      ymm_enabled = (lo & 0x6) == 0x6;  // XMM and YMM state enabled
    }
    f.avx = f.avx && ymm_enabled;
    f.fma = f.fma && ymm_enabled;
  }
  if (max_leaf >= 7) {
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    f.avx2 = f.avx && (ebx & bit_AVX2) != 0;
  }
#endif
  return f;
}

SimdLevel ResolveFromEnv() {
  const CpuFeatures& hw = DetectCpuFeatures();
  SimdLevel best = (hw.avx2 && hw.fma) ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  const char* env = std::getenv("SSTBAN_SIMD");
  if (env == nullptr || *env == '\0') return best;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  // "on" / "auto" / "avx2" / anything else: best supported tier.
  return best;
}

std::atomic<int> g_level{-1};  // -1 = unresolved

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

SimdLevel ActiveSimdLevel() {
  int level = g_level.load(std::memory_order_acquire);
  if (level < 0) {
    // Benign race: ResolveFromEnv is deterministic, every thread computes
    // the same value.
    level = static_cast<int>(ResolveFromEnv());
    g_level.store(level, std::memory_order_release);
  }
  return static_cast<SimdLevel>(level);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

SimdLevel SetSimdLevelForTesting(SimdLevel level) {
  const CpuFeatures& hw = DetectCpuFeatures();
  if (level == SimdLevel::kAvx2 && !(hw.avx2 && hw.fma)) {
    level = SimdLevel::kScalar;
  }
  g_level.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

}  // namespace sstban::core
