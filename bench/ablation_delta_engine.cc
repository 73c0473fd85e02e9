// Ablation (paper §4 engine-agnosticism + §7 Medes): swapping the CRIU-like
// full-image engine for a deduplicating delta engine under the unchanged
// request-centric policy. Latency benefits persist; the exploration-phase
// storage and network costs (Table 5's worry) collapse, because only each
// function's first snapshot is a full image.

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

constexpr uint64_t kRequests = 500;
constexpr uint32_t kEvictionK = 1;

void Row(const char* benchmark, EngineKind engine_kind) {
  const WorkloadProfile& profile = MustFind(benchmark);
  const auto policy =
      MustValue(MakePolicy("request-centric", PaperPolicyConfig(profile, kEvictionK)));
  auto eviction = EveryKRequestsEviction::Create(kEvictionK);
  SimOptions options;
  options.seed = 77;
  options.engine_kind = engine_kind;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  MustOk(env.AddDeployment(profile.name, profile, *policy, **eviction, /*worker_slots=*/1,
                           /*exploring_slots=*/1, options.seed));
  MustOk(env.RunClosedLoop(kRequests));
  env.RetireAllWorkers();
  const SimulationReport report = env.TakeFlatReport();
  const double mb = 1048576.0;
  std::printf("  %-14s %-9s median %8.0f us   peak storage %6.0f MB   "
              "network %7.0f MB   downtime %6.1f s\n",
              benchmark, engine_kind == EngineKind::kDelta ? "delta" : "criu-like",
              report.MedianLatencyUs(),
              static_cast<double>(report.object_store.peak_logical_bytes) / mb,
              static_cast<double>(report.object_store.network_bytes_uploaded +
                                  report.object_store.network_bytes_downloaded) /
                  mb,
              env.engine(0).total_checkpoint_time().ToSeconds());
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn;
  using namespace pronghorn::bench;
  std::printf("=== Ablation: checkpoint-engine substitution (CRIU-like vs delta) "
              "===\n");
  std::printf("request-centric policy, eviction 1, %llu requests\n\n",
              static_cast<unsigned long long>(kRequests));
  for (const char* benchmark : {"BFS", "DynamicHTML", "HTMLRendering"}) {
    Row(benchmark, EngineKind::kCriuLike);
    Row(benchmark, EngineKind::kDelta);
  }
  std::printf("\n(expected shape: medians unchanged — the policy is engine-\n"
              " agnostic — while delta snapshots cut exploration-phase storage,\n"
              " network, and cumulative checkpoint downtime several-fold.)\n");
  return 0;
}
