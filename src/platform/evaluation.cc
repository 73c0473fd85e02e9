#include "src/platform/evaluation.h"

#include <string>
#include <utility>

#include "src/common/mathutil.h"
#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/core/stop_condition_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/simulate.h"

namespace pronghorn {

namespace {

// A StopConditionPolicy over a request-centric policy it owns. The holder
// base is built first, so the policy base can borrow its member.
struct InnerHolder {
  RequestCentricPolicy owned_inner;
};
struct OwningStopCondition final : private InnerHolder, StopConditionPolicy {
  OwningStopCondition(RequestCentricPolicy inner, uint64_t explore_requests)
      : InnerHolder{std::move(inner)}, StopConditionPolicy(owned_inner, explore_requests) {}
};

}  // namespace

PolicyConfig PaperPolicyConfig(const WorkloadProfile& profile, uint32_t eviction_k) {
  PolicyConfig config;
  config.beta = eviction_k;
  config.pool_capacity = 12;
  config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

Result<std::unique_ptr<OrchestrationPolicy>> MakePolicy(std::string_view name,
                                                        const PolicyConfig& config,
                                                        uint64_t explore_budget) {
  std::unique_ptr<OrchestrationPolicy> policy;
  if (name == "cold") {
    policy = std::make_unique<ColdStartPolicy>(config);
  } else if (name == "after-first") {
    policy = std::make_unique<CheckpointAfterFirstPolicy>(config);
  } else if (name == "request-centric" || name == "stop-condition") {
    PRONGHORN_ASSIGN_OR_RETURN(RequestCentricPolicy inner,
                               RequestCentricPolicy::Create(config));
    if (name == "request-centric") {
      policy = std::make_unique<RequestCentricPolicy>(std::move(inner));
    } else {
      // The paper's bound when no budget is given.
      policy = std::make_unique<OwningStopCondition>(
          std::move(inner),
          explore_budget == 0 ? config.max_checkpoint_request + 100 : explore_budget);
    }
  } else {
    return InvalidArgumentError("unknown policy '" + std::string(name) + "'");
  }
  return policy;
}

Result<SimulationReport> RunPaperExperiment(const WorkloadProfile& profile,
                                            std::string_view policy, uint32_t eviction_k,
                                            uint64_t requests, uint64_t seed) {
  PRONGHORN_ASSIGN_OR_RETURN(const std::unique_ptr<OrchestrationPolicy> built,
                             MakePolicy(policy, PaperPolicyConfig(profile, eviction_k)));
  SimOptions options;
  options.seed = seed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = eviction_k;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = built.get();
  spec.requests = requests;
  PRONGHORN_ASSIGN_OR_RETURN(
      SimReport report,
      Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
               std::span<const SimFunctionSpec>(&spec, 1), options));
  return std::move(report.per_function.front().report);
}

Result<EvaluationMatrix> RunEvaluationMatrix(
    std::span<const WorkloadProfile* const> profiles,
    std::span<const uint32_t> evictions, uint64_t requests, uint64_t seed_base) {
  EvaluationMatrix matrix;
  matrix.headlines.resize(evictions.size());
  for (const WorkloadProfile* profile : profiles) {
    for (size_t e = 0; e < evictions.size(); ++e) {
      const uint32_t k = evictions[e];
      EvaluationRow row;
      row.profile = profile;
      row.eviction_k = k;
      for (const std::string_view policy : kPaperPolicies) {
        PRONGHORN_ASSIGN_OR_RETURN(
            SimulationReport report,
            RunPaperExperiment(*profile, policy, k, requests, seed_base + k));
        row.reports.push_back(std::move(report));
      }
      // kPaperPolicies order: after-first is the baseline of request-centric.
      row.improvement_percent = MedianImprovementPercent(row.reports[1], row.reports[2]);
      EvaluationHeadline& headline = matrix.headlines[e];
      headline.eviction_k = k;
      if (row.improvement_percent > 5.0) {
        headline.winners.push_back(row.improvement_percent);
      } else if (row.improvement_percent >= -5.0) {
        ++headline.on_par;
      } else {
        ++headline.worse;
      }
      matrix.rows.push_back(std::move(row));
    }
  }
  for (EvaluationHeadline& headline : matrix.headlines) {
    headline.geomean_percent = GeometricMean(headline.winners);
  }
  return matrix;
}

}  // namespace pronghorn
