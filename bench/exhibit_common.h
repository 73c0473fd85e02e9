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
#include <span>
#include <string_view>
#include <vector>

#include "src/platform/analysis.h"
#include "src/platform/evaluation.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn::bench {

// Display label of each kPaperPolicies strategy.
inline const char* PolicyLabel(std::string_view policy) {
  return policy == "cold"          ? "Cold"
         : policy == "after-first" ? "Checkpoint after 1st"
                                   : "Request-centric";
}

// Exits with the status message when `status` is an error.
inline void MustOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
}

// Exits with the status message when `result` is an error; else its value.
template <typename T>
T MustValue(Result<T> result) {
  MustOk(result.status());
  return *std::move(result);
}

inline const WorkloadProfile& MustFind(const char* name) {
  return *MustValue(WorkloadRegistry::Default().Find(name));
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

// Runs the §5.1 matrix over the named benchmarks at seed `seed_base + k` and
// prints each row as Figures 4 and 5 show it: per-strategy percentiles,
// log-axis densities, and the request-centric median improvement.
inline EvaluationMatrix PrintEvaluationMatrix(std::span<const char* const> benchmarks,
                                              uint64_t seed_base) {
  std::vector<const WorkloadProfile*> profiles;
  for (const char* name : benchmarks) {
    profiles.push_back(&MustFind(name));
  }
  EvaluationMatrix matrix = MustValue(
      RunEvaluationMatrix(profiles, kPaperEvictions, kPaperRequests, seed_base));
  const WorkloadProfile* previous = nullptr;
  for (const EvaluationRow& row : matrix.rows) {
    if (row.profile != previous) {
      std::printf("\n%s\n", row.profile->name.c_str());
      previous = row.profile;
    }
    std::printf(" eviction: every %u request(s)\n", row.eviction_k);
    std::vector<DistributionSummary> summaries;
    for (size_t p = 0; p < row.reports.size(); ++p) {
      summaries.push_back(row.reports[p].LatencySummary());
      PrintPercentileRow(PolicyLabel(kPaperPolicies[p]), summaries.back());
    }
    // The densities share the axis of the two checkpointing strategies.
    const auto [log_lo, log_hi] = SharedLogBounds(summaries[1], summaries[2]);
    for (size_t p = 0; p < summaries.size(); ++p) {
      PrintAsciiDensity(PolicyLabel(kPaperPolicies[p]), summaries[p], log_lo, log_hi);
    }
    std::printf("  -> request-centric median improvement over after-1st: %+.1f%%\n",
                row.improvement_percent);
  }
  return matrix;
}

}  // namespace pronghorn::bench

#endif  // PRONGHORN_BENCH_EXHIBIT_COMMON_H_
