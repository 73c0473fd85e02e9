// The paper's §5.1 evaluation protocol, written once: the policy parameters,
// the policy-by-name factory, one closed-loop experiment, and the Figure 4/5
// matrix of strategies x eviction rates with its §5.2 headline aggregation.
// The exhibits, pronghorn_eval, pronghorn_sim and the claim tests all call
// these instead of restating the protocol.

#ifndef PRONGHORN_SRC_PLATFORM_EVALUATION_H_
#define PRONGHORN_SRC_PLATFORM_EVALUATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/core/policy.h"
#include "src/core/policy_config.h"
#include "src/platform/metrics.h"
#include "src/workloads/workload_profile.h"

namespace pronghorn {

// §5.1 "Orchestration policies": p = 40%, gamma = 10%, C = 12, W = 100 (PyPy)
// or 200 (JVM), beta = the eviction interval under test.
PolicyConfig PaperPolicyConfig(const WorkloadProfile& profile, uint32_t eviction_k);

// The three strategies §5.1 compares, by their MakePolicy names, and the
// eviction rates and invocation count of Figures 4 and 5.
inline constexpr std::string_view kPaperPolicies[] = {"cold", "after-first",
                                                      "request-centric"};
inline constexpr uint32_t kPaperEvictions[] = {1, 4, 20};
inline constexpr uint64_t kPaperRequests = 500;

// Builds a policy by name: cold | after-first | request-centric |
// stop-condition. stop-condition wraps a request-centric policy that the
// returned object owns, and freezes after `explore_budget` requests
// (0 = the paper's W + 100 bound).
Result<std::unique_ptr<OrchestrationPolicy>> MakePolicy(std::string_view name,
                                                        const PolicyConfig& config,
                                                        uint64_t explore_budget = 0);

// One closed-loop experiment of the §5.1 protocol: the named policy with
// PaperPolicyConfig(profile, eviction_k), one worker slot evicted every
// `eviction_k` requests, Simulate()'s kSingle topology at `seed`.
Result<SimulationReport> RunPaperExperiment(const WorkloadProfile& profile,
                                            std::string_view policy, uint32_t eviction_k,
                                            uint64_t requests, uint64_t seed);

// One (benchmark, eviction rate) row of the Figure 4/5 matrix.
struct EvaluationRow {
  const WorkloadProfile* profile = nullptr;
  uint32_t eviction_k = 0;
  std::vector<SimulationReport> reports;  // One per kPaperPolicies entry.
  double improvement_percent = 0.0;  // Request-centric over after-first medians.
};

// The §5.2 aggregation at one eviction rate: a benchmark is better above
// +5%, worse below -5%, on-par otherwise.
struct EvaluationHeadline {
  uint32_t eviction_k = 0;
  std::vector<double> winners;  // The better benchmarks' improvements.
  uint32_t on_par = 0;
  uint32_t worse = 0;
  double geomean_percent = 0.0;  // GeometricMean(winners).
};

struct EvaluationMatrix {
  std::vector<EvaluationRow> rows;  // Profile-major, then eviction rate.
  std::vector<EvaluationHeadline> headlines;  // One per eviction rate.
};

// Runs every kPaperPolicies strategy at every eviction rate k for each
// profile, `requests` invocations each at seed `seed_base + k`.
Result<EvaluationMatrix> RunEvaluationMatrix(
    std::span<const WorkloadProfile* const> profiles,
    std::span<const uint32_t> evictions, uint64_t requests, uint64_t seed_base);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_EVALUATION_H_
