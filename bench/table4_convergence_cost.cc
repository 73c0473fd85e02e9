// Table 4: for each benchmark, the number of requests the request-centric
// policy takes to find the optimal snapshot (sliding window of 20, median
// within 2% of the final value, averaged across eviction rates), plus
// checkpoint/restore timings and snapshot sizes measured by repeatedly
// checkpointing and restoring each benchmark 10 times after startup.

#include "bench/exhibit_common.h"
#include "src/checkpoint/criu_like_engine.h"
#include "src/common/stats.h"

namespace pronghorn::bench {
namespace {

struct CostSample {
  double checkpoint_ms_mean = 0.0;
  double checkpoint_ms_sd = 0.0;
  double restore_ms_mean = 0.0;
  double restore_ms_sd = 0.0;
  double snapshot_mb = 0.0;
};

CostSample MeasureCosts(const WorkloadProfile& profile) {
  CriuLikeEngine engine(11);
  RuntimeProcess process = RuntimeProcess::ColdStart(profile, 5);
  for (uint64_t i = 0; i < 30; ++i) {
    process.Execute({i, 1.0});  // "after startup": a briefly-warm process.
  }
  OnlineStats checkpoint_ms;
  OnlineStats restore_ms;
  double snapshot_mb = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto checkpoint = MustValue(engine.Checkpoint(
        process, SnapshotId{static_cast<uint64_t>(rep) + 1}, TimePoint()));
    checkpoint_ms.Add(checkpoint.downtime.ToMillis());
    snapshot_mb = static_cast<double>(checkpoint.image.metadata().logical_size_bytes) /
                  (1024.0 * 1024.0);
    const auto restored =
        MustValue(engine.Restore(checkpoint.image, WorkloadRegistry::Default()));
    restore_ms.Add(restored.restore_time.ToMillis());
  }
  return CostSample{checkpoint_ms.mean(), checkpoint_ms.stddev(), restore_ms.mean(),
                    restore_ms.stddev(), snapshot_mb};
}

// Mean convergence request across the three eviction rates (the paper
// averages across all tested input-variance and eviction combinations).
double MeasureConvergence(const WorkloadProfile& profile) {
  double sum = 0.0;
  int counted = 0;
  for (uint32_t k : {1u, 4u, 20u}) {
    const SimulationReport report = MustValue(
        RunPaperExperiment(profile, "request-centric", k, 500, /*seed=*/33u + k));
    const auto convergence = ConvergenceRequest(report.records, 20, 0.02);
    if (convergence.has_value()) {
      sum += static_cast<double>(*convergence);
      ++counted;
    }
  }
  return counted > 0 ? sum / counted : -1.0;
}

void Row(const char* benchmark) {
  const WorkloadProfile& profile = MustFind(benchmark);
  const double convergence = MeasureConvergence(profile);
  const CostSample costs = MeasureCosts(profile);
  std::printf("  %-14s %7.0f   %6.1f +- %-5.1f  %6.1f +- %-5.1f  %7.1f\n", benchmark,
              convergence, costs.checkpoint_ms_mean, costs.checkpoint_ms_sd,
              costs.restore_ms_mean, costs.restore_ms_sd, costs.snapshot_mb);
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  std::printf("=== Table 4: convergence and checkpoint/restore costs ===\n");
  std::printf("  %-14s %7s   %-16s %-16s %8s\n", "benchmark", "req #",
              "checkpoint (ms)", "restore (ms)", "img (MB)");
  std::printf("  Java:\n");
  for (const char* name : {"HTMLRendering", "MatrixMult", "Hash", "WordCount"}) {
    pronghorn::bench::Row(name);
  }
  std::printf("  Python:\n");
  for (const char* name : {"BFS", "DFS", "MST", "DynamicHTML", "PageRank", "Uploader",
                           "Thumbnailer", "Video", "Compression"}) {
    pronghorn::bench::Row(name);
  }
  std::printf("\n(paper: convergence 100-287 requests for PyPy and 203-218 for JVM --\n"
              " always under W+100; checkpoint 60-105 ms; restore 30-81 ms;\n"
              " snapshots ~10-13 MB Java, ~54-64 MB Python)\n");
  return 0;
}
