// Bit-identity property tests for the policy's math kernels.
//
// The allocation-free kernels in src/common/mathutil.cc and the incremental
// caches in WeightVector are only admissible because they produce the exact
// bits the naive code produces. These tests pin that contract across random
// inputs, temperatures, and sizes, so a future "just use -ffast-math" or
// reassociated reduction shows up as a hard failure instead of a silent
// digest drift.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/core/weight_vector.h"

namespace pronghorn {
namespace {

// Verbatim naive softmax: the pre-optimization reference the production
// SoftmaxInto must match bit-for-bit.
std::vector<double> SoftmaxReference(std::span<const double> logits,
                                     double temperature) {
  std::vector<double> out;
  if (logits.empty()) {
    return out;
  }
  if (temperature <= 0.0) {
    temperature = 1.0;
  }
  out.reserve(logits.size());
  double max_logit = logits[0];
  for (double v : logits) {
    max_logit = std::max(max_logit, v);
  }
  double total = 0.0;
  for (double v : logits) {
    const double e = std::exp((v - max_logit) / temperature);
    out.push_back(e);
    total += e;
  }
  for (double& p : out) {
    p /= total;
  }
  return out;
}

std::vector<double> RandomLogits(Rng& rng, size_t n, double lo, double hi) {
  std::vector<double> logits(n);
  for (double& v : logits) {
    v = rng.UniformDouble(lo, hi);
  }
  return logits;
}

void ExpectBitIdentical(std::span<const double> got,
                        std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    // memcmp, not ==: bit-identity is the contract (and it catches -0.0 vs
    // 0.0 or NaN payload drift that operator== would miss).
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " diverges at index " << i << ": got " << got[i]
        << " want " << want[i];
  }
}

TEST(VectorMathTest, SoftmaxBitIdenticalToReferenceAcrossSizes) {
  Rng rng(0x50f7aa);
  // 13 = snapshot pool capacity 12 + the cold-start candidate; 1..8 covers
  // every remainder of a 4-wide stride, should the compiler vectorize.
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{13}, size_t{16}, size_t{31},
                   size_t{64}, size_t{513}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> logits = RandomLogits(rng, n, -50.0, 50.0);
      const std::vector<double> want = SoftmaxReference(logits, 1.0);
      std::vector<double> got(n);
      SoftmaxInto(logits, 1.0, got);
      ExpectBitIdentical(got, want, "SoftmaxInto(T=1)");
      ExpectBitIdentical(Softmax(logits, 1.0), want, "Softmax(T=1)");
    }
  }
}

TEST(VectorMathTest, SoftmaxBitIdenticalAcrossTemperatures) {
  Rng rng(0xfeed5);
  // Includes 1.0 (the fast path that skips the division) and temperatures on
  // both sides of it; <= 0 exercises the clamp-to-1 rule.
  for (double temperature : {1.0, 0.25, 0.5, 2.0, 7.5, 100.0, 0.0, -3.0}) {
    for (int trial = 0; trial < 10; ++trial) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
      const std::vector<double> logits = RandomLogits(rng, n, -20.0, 20.0);
      const std::vector<double> want = SoftmaxReference(logits, temperature);
      std::vector<double> got(n);
      SoftmaxInto(logits, temperature, got);
      ExpectBitIdentical(got, want, "SoftmaxInto");
    }
  }
}

TEST(VectorMathTest, SoftmaxHandlesExtremeMagnitudes) {
  // Large spreads drive exp to 0/1 extremes; identical inputs hit exact
  // ties. Both must match the reference bits, not just be "close".
  const std::vector<std::vector<double>> cases = {
      {700.0, -700.0, 0.0},
      {1e8, 1e8, 1e8},
      {-1e8, -1e8 + 1.0},
      {0.0, -0.0, 0.0},
      {3.5},
  };
  for (const auto& logits : cases) {
    for (double temperature : {1.0, 0.5, 3.0}) {
      const std::vector<double> want = SoftmaxReference(logits, temperature);
      std::vector<double> got(logits.size());
      SoftmaxInto(logits, temperature, got);
      ExpectBitIdentical(got, want, "SoftmaxInto extremes");
    }
  }
}

TEST(VectorMathTest, InverseWeightsIntoMatchesScalarFold) {
  Rng rng(0x1234);
  for (size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{6}, size_t{200},
                   size_t{1024}}) {
    for (double mu : {1e-6, 0.01, 1.0}) {
      std::vector<double> values(n);
      for (double& v : values) {
        // Mix unexplored zeros with realistic latencies.
        v = rng.UniformDouble() < 0.3 ? 0.0 : rng.UniformDouble(1e-4, 10.0);
      }
      std::vector<double> want(n);
      for (size_t i = 0; i < n; ++i) {
        want[i] = InverseWeight(values[i], mu);
      }
      std::vector<double> got(n);
      InverseWeightsInto(values, mu, got);
      ExpectBitIdentical(got, want, "InverseWeightsInto");
    }
  }
}

// --- WeightVector cache vs naive fold -------------------------------------

// The naive recompute the incremental caches must reproduce.
double NaiveLifetime(const WeightVector& w, uint64_t start, uint32_t beta,
                     double mu) {
  double sum = 0.0;
  for (uint64_t i = start; i <= start + beta; ++i) {
    sum += InverseWeight(w.At(i), mu);
  }
  return sum / static_cast<double>(beta);
}

TEST(VectorMathTest, WeightVectorCachesMatchNaiveUnderRandomUpdates) {
  Rng rng(0xbeef);
  const uint32_t length = 200;
  const uint32_t beta = 23;
  const double mu = 0.01;
  const double alpha = 0.8;
  WeightVector w(length);

  for (int round = 0; round < 300; ++round) {
    const uint64_t req = static_cast<uint64_t>(rng.UniformInt(0, length - 1));
    w.Update(req, rng.UniformDouble(1e-4, 2.0), alpha);

    // Spot-check a random window each round: span cache vs recompute.
    const uint64_t lo = static_cast<uint64_t>(rng.UniformInt(0, length - 1));
    const uint64_t hi =
        std::min<uint64_t>(lo + static_cast<uint64_t>(rng.UniformInt(0, 40)),
                           length - 1);
    const std::vector<double> want = w.InverseWeights(lo, hi, mu);
    const std::span<const double> got = w.InverseWeightsSpan(lo, hi, mu);
    ExpectBitIdentical(got, want, "InverseWeightsSpan");

    const uint64_t start = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(length) - beta - 2));
    const double lifetime = w.LifetimeWeight(start, beta, mu);
    EXPECT_EQ(lifetime, NaiveLifetime(w, start, beta, mu))
        << "round " << round << " start " << start;
    // A second call must serve the memo and return the same bits.
    EXPECT_EQ(w.LifetimeWeight(start, beta, mu), lifetime);
  }
}

TEST(VectorMathTest, WeightVectorCacheSurvivesParameterSwitches) {
  Rng rng(0x77);
  WeightVector w(64);
  for (int i = 0; i < 40; ++i) {
    w.Update(static_cast<uint64_t>(rng.UniformInt(0, 63)),
             rng.UniformDouble(0.01, 1.0), 0.8);
  }
  // Alternate (beta, mu) keys so the memo is rebuilt repeatedly; every answer
  // must still match the naive fold for its own parameters.
  for (int round = 0; round < 10; ++round) {
    for (uint32_t beta : {5u, 13u}) {
      for (double mu : {0.01, 0.5}) {
        const uint64_t start = static_cast<uint64_t>(rng.UniformInt(0, 40));
        EXPECT_EQ(w.LifetimeWeight(start, beta, mu),
                  NaiveLifetime(w, start, beta, mu));
      }
    }
  }
}

}  // namespace
}  // namespace pronghorn
