// Compilation tiers of the simulated managed runtime.

#ifndef PRONGHORN_SRC_JIT_TIER_H_
#define PRONGHORN_SRC_JIT_TIER_H_

#include <cstdint>

namespace pronghorn {

// Three-tier pipeline modeling HotSpot (interpreter -> C1 -> C2) and PyPy
// (interpreter -> unoptimized trace -> optimized trace).
enum class CompilationTier : uint8_t {
  kInterpreter = 0,
  kBaseline = 1,
  kOptimized = 2,
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_JIT_TIER_H_
