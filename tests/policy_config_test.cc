#include "src/core/policy_config.h"

#include <gtest/gtest.h>

#include "src/platform/evaluation.h"

namespace pronghorn {
namespace {

// §5.1 for a PyPy benchmark: p = 40%, gamma = 10%, C = 12, W = 100.
PolicyConfig PythonConfig() {
  return PaperPolicyConfig(**WorkloadRegistry::Default().Find("BFS"), /*eviction_k=*/20);
}

TEST(PolicyConfigTest, PaperPolicyConfigValidates) {
  for (const WorkloadProfile* profile : WorkloadRegistry::Default().EvaluationSet()) {
    for (const uint32_t k : kPaperEvictions) {
      EXPECT_TRUE(PaperPolicyConfig(*profile, k).Validate().ok()) << profile->name;
    }
  }
}

TEST(PolicyConfigTest, DefaultsValidate) { EXPECT_TRUE(PolicyConfig{}.Validate().ok()); }

TEST(PolicyConfigTest, WeightVectorLengthCoversLifetimeBeyondW) {
  PolicyConfig config = PythonConfig();
  // A worker restored at W still reports beta more latencies.
  EXPECT_EQ(config.WeightVectorLength(), 100u + 20u + 1u);
}

struct InvalidCase {
  const char* name;
  void (*mutate)(PolicyConfig&);
};

class PolicyConfigInvalidSweep : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(PolicyConfigInvalidSweep, Rejected) {
  PolicyConfig config = PythonConfig();
  GetParam().mutate(config);
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, PolicyConfigInvalidSweep,
    ::testing::Values(
        InvalidCase{"zero_beta", [](PolicyConfig& c) { c.beta = 0; }},
        InvalidCase{"zero_capacity", [](PolicyConfig& c) { c.pool_capacity = 0; }},
        InvalidCase{"zero_w", [](PolicyConfig& c) { c.max_checkpoint_request = 0; }},
        InvalidCase{"alpha_zero", [](PolicyConfig& c) { c.alpha = 0.0; }},
        InvalidCase{"alpha_above_one", [](PolicyConfig& c) { c.alpha = 1.5; }},
        InvalidCase{"negative_p", [](PolicyConfig& c) { c.retain_top_percent = -1; }},
        InvalidCase{"p_above_100", [](PolicyConfig& c) { c.retain_top_percent = 101; }},
        InvalidCase{"negative_gamma",
                    [](PolicyConfig& c) { c.retain_random_percent = -1; }},
        InvalidCase{"p_plus_gamma_above_100",
                    [](PolicyConfig& c) {
                      c.retain_top_percent = 60;
                      c.retain_random_percent = 50;
                    }},
        InvalidCase{"zero_mu", [](PolicyConfig& c) { c.mu = 0.0; }},
        InvalidCase{"negative_mu", [](PolicyConfig& c) { c.mu = -1e-6; }},
        InvalidCase{"zero_temperature",
                    [](PolicyConfig& c) { c.softmax_temperature = 0.0; }},
        // What `--w -1` / `--beta -3` used to wrap to: W + beta + 1 overflows
        // uint32_t into a tiny weight vector.
        InvalidCase{"w_wrapped_from_negative",
                    [](PolicyConfig& c) { c.max_checkpoint_request = 0xffffffffu; }},
        InvalidCase{"beta_wrapped_from_negative",
                    [](PolicyConfig& c) { c.beta = 0xfffffffdu; }},
        InvalidCase{"w_plus_beta_overflows",
                    [](PolicyConfig& c) {
                      c.max_checkpoint_request = 0x80000000u;
                      c.beta = 0x80000000u;
                    }},
        // `--w 1000000000`: no overflow, but a 10^9-slot weight vector.
        InvalidCase{"huge_w",
                    [](PolicyConfig& c) { c.max_checkpoint_request = 1000000000u; }},
        InvalidCase{"weight_vector_one_past_bound",
                    [](PolicyConfig& c) {
                      c.max_checkpoint_request = static_cast<uint32_t>(
                          PolicyConfig::kMaxWeightVectorLength - c.beta);
                    }}),
    [](const ::testing::TestParamInfo<InvalidCase>& param_info) {
      return param_info.param.name;
    });

TEST(PolicyConfigTest, BoundaryValuesAccepted) {
  PolicyConfig config = PythonConfig();
  config.alpha = 1.0;  // Pure replacement is legal.
  EXPECT_TRUE(config.Validate().ok());
  config.retain_top_percent = 100.0;
  config.retain_random_percent = 0.0;
  EXPECT_TRUE(config.Validate().ok());
  config.beta = 1;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(PolicyConfigTest, WeightVectorBoundAdmitsEveryConfigInUse) {
  // The largest W in the tree (JVM, W = 200) with the largest beta any
  // bench or perf workload derives from its eviction period (64).
  PolicyConfig config = PythonConfig();
  config.max_checkpoint_request = 200;
  config.beta = 64;
  EXPECT_TRUE(config.Validate().ok());
  // Exactly at the bound is still legal.
  config.max_checkpoint_request =
      static_cast<uint32_t>(PolicyConfig::kMaxWeightVectorLength - config.beta - 1);
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.WeightVectorLength(), PolicyConfig::kMaxWeightVectorLength);
}

}  // namespace
}  // namespace pronghorn
