// Shared helpers for the exhibit harnesses (one binary per paper table or
// figure). Each harness prints the rows/series of its exhibit; absolute
// numbers come from the simulated substrate, so the *shape* (who wins, by
// roughly what factor, where crossovers fall) is the comparison target, not
// the paper's testbed-specific values.

#ifndef PRONGHORN_BENCH_EXHIBIT_COMMON_H_
#define PRONGHORN_BENCH_EXHIBIT_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/analysis.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn::bench {

// The evaluation's policy parameters (§5.1 "Orchestration policies"):
// p = 40%, gamma = 10%, C = 12, W = 100 (PyPy) / 200 (JVM), beta = the
// eviction interval under test.
inline PolicyConfig PaperConfig(const WorkloadProfile& profile, uint32_t eviction_k) {
  PolicyConfig config;
  config.beta = eviction_k;
  config.pool_capacity = 12;
  config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
  config.retain_top_percent = 40.0;
  config.retain_random_percent = 10.0;
  return config;
}

inline const WorkloadProfile& MustFind(const char* name) {
  auto profile = WorkloadRegistry::Default().Find(name);
  if (!profile.ok()) {
    std::fprintf(stderr, "unknown benchmark %s: %s\n", name,
                 profile.status().ToString().c_str());
    std::exit(1);
  }
  return **profile;
}

enum class PolicyKind { kCold, kAfterFirst, kRequestCentric };

inline const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kCold:
      return "Cold";
    case PolicyKind::kAfterFirst:
      return "Checkpoint after 1st";
    case PolicyKind::kRequestCentric:
      return "Request-centric";
  }
  return "?";
}

inline std::unique_ptr<OrchestrationPolicy> MakePolicy(PolicyKind kind,
                                                       const PolicyConfig& config) {
  switch (kind) {
    case PolicyKind::kCold:
      return std::make_unique<ColdStartPolicy>(config);
    case PolicyKind::kAfterFirst:
      return std::make_unique<CheckpointAfterFirstPolicy>(config);
    case PolicyKind::kRequestCentric: {
      auto policy = RequestCentricPolicy::Create(config);
      if (!policy.ok()) {
        std::fprintf(stderr, "bad policy config: %s\n",
                     policy.status().ToString().c_str());
        std::exit(1);
      }
      return std::make_unique<RequestCentricPolicy>(*std::move(policy));
    }
  }
  return nullptr;
}

// Runs one closed-loop experiment (the §5.1 measurement protocol) through
// Simulate() in its single-function configuration (one worker slot,
// sub-seed = seed).
inline SimulationReport RunClosedLoop(const WorkloadProfile& profile, PolicyKind kind,
                                      uint32_t eviction_k, uint64_t requests,
                                      uint64_t seed, bool input_noise = true) {
  const PolicyConfig config = PaperConfig(profile, eviction_k);
  const auto policy = MakePolicy(kind, config);
  SimOptions options;
  options.seed = seed;
  options.input_noise = input_noise;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = eviction_k;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = policy.get();
  spec.requests = requests;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report->per_function.front().report);
}

// Exits with the status message when `status` is an error.
inline void MustOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
}

// Trace arrivals addressed to one deployment of a SimEnvironment.
inline std::vector<SimEnvironment::Arrival> ArrivalsFor(size_t deployment,
                                                        const std::vector<TimePoint>& times) {
  std::vector<SimEnvironment::Arrival> arrivals;
  arrivals.reserve(times.size());
  for (const TimePoint time : times) {
    arrivals.push_back(SimEnvironment::Arrival{deployment, time});
  }
  return arrivals;
}

// Prints a percentile row of a latency distribution in microseconds.
inline void PrintPercentileRow(const char* label, const DistributionSummary& summary) {
  std::printf("  %-22s p10=%9.0f  p25=%9.0f  p50=%9.0f  p75=%9.0f  p90=%9.0f  "
              "p99=%9.0f\n",
              label, summary.Quantile(10), summary.Quantile(25), summary.Quantile(50),
              summary.Quantile(75), summary.Quantile(90), summary.Quantile(99));
}

// Renders the distribution as an ASCII density over a log-scale latency axis
// (the visual analogue of the paper's log-x CDF panels). `log10_lo/hi` bound
// the axis in log10(microseconds).
inline void PrintAsciiDensity(const char* label, const DistributionSummary& summary,
                              double log10_lo, double log10_hi) {
  LogHistogram histogram(log10_lo, log10_hi, 60);
  for (double v : summary.samples()) {
    histogram.Add(v);
  }
  std::printf("  %-22s |%s| 1e%.0f..1e%.0f us\n", label,
              histogram.ToAsciiArt(60).c_str(), log10_lo, log10_hi);
}

// Shared log-axis bounds covering both distributions.
inline std::pair<double, double> SharedLogBounds(const DistributionSummary& a,
                                                 const DistributionSummary& b) {
  const double lo = std::min(a.Quantile(1), b.Quantile(1));
  const double hi = std::max(a.Quantile(99), b.Quantile(99));
  const double log_lo = std::floor(std::log10(std::max(lo, 1.0)));
  const double log_hi = std::ceil(std::log10(std::max(hi, 10.0)));
  return {log_lo, log_hi};
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------------"
              "-----------------------------\n");
}

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_EXHIBIT_COMMON_H_
