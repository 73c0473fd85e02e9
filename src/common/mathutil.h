// Numeric helpers used by the orchestration policy: numerically stable
// softmax, EWMA updates, inverse-latency weighting, and summary means.

#ifndef PRONGHORN_SRC_COMMON_MATHUTIL_H_
#define PRONGHORN_SRC_COMMON_MATHUTIL_H_

#include <span>
#include <vector>

#include "src/common/clock.h"

namespace pronghorn {

// Numerically stable softmax: subtracts the max before exponentiating, so
// arbitrarily large inverse-latency weights cannot overflow. Returns an empty
// vector for empty input. `temperature` scales the input logits; 1.0 is the
// paper's formulation, larger values flatten the distribution.
std::vector<double> Softmax(std::span<const double> logits, double temperature = 1.0);

// Allocation-free softmax into caller-provided storage (out.size() must equal
// logits.size()). Bit-for-bit identical to Softmax(): the max scan and the
// final normalization are element-wise IEEE operations, and the exp
// accumulation runs left to right, the order the report digests pin.
// tests/vector_math_test.cc holds the equivalence property across random
// inputs, temperatures, and sizes.
void SoftmaxInto(std::span<const double> logits, double temperature,
                 std::span<double> out);

// out[i] = 1 / (values[i] + mu) for every i: the bulk form of InverseWeight
// used by the weight-vector caches and folds.
void InverseWeightsInto(std::span<const double> values, double mu,
                        std::span<double> out);

// EWMA update used by the policy's knowledge step (Algorithm 1, part 3):
// new = alpha * sample + (1 - alpha) * old.
double EwmaUpdate(double old_value, double sample, double alpha);

// Inverse weighting 1 / (value + mu) from the paper's probability map D.
// `mu` is the tiny positive constant that makes unexplored (zero) entries
// receive enormous weight.
double InverseWeight(double value, double mu);

// Geometric mean of strictly positive values; returns 0 for empty input and
// ignores non-positive entries (they would otherwise poison the log-sum).
double GeometricMean(std::span<const double> values);

// Arithmetic mean; 0 for empty input.
double Mean(std::span<const double> values);

// Clamps `value` to [lo, hi].
double Clamp(double value, double lo, double hi);

// Inverse CDF of the standard normal distribution (Acklam's rational
// approximation, |relative error| < 1.15e-9). `p` must be in (0, 1).
double NormalQuantile(double p);

// Capped exponential backoff: base * multiplier^attempt, saturating at `cap`.
// The product is formed and compared against the cap entirely in doubles, so
// large attempt counts (a CAS livelock, a retry storm) saturate cleanly at
// `cap` instead of overflowing Duration's int64 microseconds — with
// multiplier 2.0 the naive Duration multiply is already undefined behavior
// near attempt 50. Below the cap the result is bit-identical to
// `base * multiplier^attempt` computed through Duration::operator*(double).
// Negative attempts are treated as 0.
Duration CappedExponentialBackoff(Duration base, double multiplier, int attempt,
                                  Duration cap);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_MATHUTIL_H_
