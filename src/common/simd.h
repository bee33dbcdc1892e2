#ifndef HASJ_COMMON_SIMD_H_
#define HASJ_COMMON_SIMD_H_

#include <cstring>

namespace hasj::common {

// Which row-span kernel backend to run (HwConfig::simd, the bench --simd
// flag). The backends are bit-identical by contract — same mask words, same
// verdicts, same early-stop points (DESIGN.md §14) — so this knob trades
// only throughput, never decisions. kAuto resolves to the widest backend
// the CPU supports at startup; the explicit modes exist for the
// differential tests and the ablation bench.
enum class SimdMode {
  kAuto,
  kScalar,
  kAvx2,
};

// Runtime AVX2 capability. __builtin_cpu_supports checks CPUID *and* the
// OS-enabled YMM state (XCR0), so a true here means 256-bit code is safe to
// execute, not just advertised.
inline bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

inline const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "unknown";
}

// Parses a --simd flag value; returns false on unknown names.
inline bool ParseSimdMode(const char* text, SimdMode* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "auto") == 0) {
    *out = SimdMode::kAuto;
    return true;
  }
  if (std::strcmp(text, "scalar") == 0) {
    *out = SimdMode::kScalar;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    *out = SimdMode::kAvx2;
    return true;
  }
  return false;
}

}  // namespace hasj::common

#endif  // HASJ_COMMON_SIMD_H_
