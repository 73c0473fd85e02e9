#include "src/common/mathutil.h"

#include <algorithm>
#include <cmath>

namespace pronghorn {

void InverseWeightsInto(std::span<const double> values, double mu,
                        std::span<double> out) {
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = 1.0 / (values[i] + mu);
  }
}

void SoftmaxInto(std::span<const double> logits, double temperature,
                 std::span<double> out) {
  if (logits.empty()) {
    return;
  }
  if (temperature <= 0.0) {
    temperature = 1.0;
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  // exp accumulation stays scalar and in order: the total feeds the
  // normalization, and reassociating it would change bits.
  double total = 0.0;
  if (temperature == 1.0) {
    // The policy's only temperature. x / 1.0 == x exactly in IEEE-754, so
    // skipping the division is bit-identical and removes an unpipelined
    // divide from every loop iteration.
    for (size_t i = 0; i < logits.size(); ++i) {
      const double e = std::exp(logits[i] - max_logit);
      out[i] = e;
      total += e;
    }
  } else {
    for (size_t i = 0; i < logits.size(); ++i) {
      const double e = std::exp((logits[i] - max_logit) / temperature);
      out[i] = e;
      total += e;
    }
  }
  for (double& p : out) {
    p /= total;
  }
}

std::vector<double> Softmax(std::span<const double> logits, double temperature) {
  std::vector<double> out(logits.size());
  SoftmaxInto(logits, temperature, out);
  return out;
}

double EwmaUpdate(double old_value, double sample, double alpha) {
  return alpha * sample + (1.0 - alpha) * old_value;
}

double InverseWeight(double value, double mu) {
  return 1.0 / (value + mu);
}

double GeometricMean(std::span<const double> values) {
  double log_sum = 0.0;
  size_t count = 0;
  for (double v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++count;
    }
  }
  if (count == 0) {
    return 0.0;
  }
  return std::exp(log_sum / static_cast<double>(count));
}

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Clamp(double value, double lo, double hi) {
  return std::min(std::max(value, lo), hi);
}

double NormalQuantile(double p) {
  // Peter Acklam's inverse-normal approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  p = Clamp(p, 1e-12, 1.0 - 1e-12);
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

Duration CappedExponentialBackoff(Duration base, double multiplier, int attempt,
                                  Duration cap) {
  const double scaled =
      static_cast<double>(base.ToMicros()) *
      std::pow(multiplier, static_cast<double>(std::max(attempt, 0)));
  // `scaled` may be inf (huge attempt) or nan (pathological inputs); the
  // negated comparison routes both to the cap, so the int64 conversion below
  // only ever sees values strictly inside the cap.
  if (!(scaled < static_cast<double>(cap.ToMicros()))) {
    return cap;
  }
  return Duration::Micros(static_cast<int64_t>(scaled));
}

}  // namespace pronghorn
