// Ablation (paper §5.3 "Bounding system costs"): exploration amortized over
// a worker fleet. "Only a nonempty subset of containers running a given
// application need to be exploring in order to realize performance benefits
// ... with the degree of amortization chosen by the cloud provider." We
// sweep the number of exploring slots in an 8-slot cluster and report the
// cluster-wide median latency against the checkpointing cost incurred.

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

constexpr uint32_t kWorkerSlots = 8;
constexpr uint64_t kRequests = 1600;
constexpr uint32_t kEvictionK = 4;

void Row(const WorkloadProfile& profile, uint32_t exploring_slots) {
  const auto policy =
      MustValue(MakePolicy("request-centric", PaperPolicyConfig(profile, kEvictionK)));
  SimOptions options;
  options.worker_slots = kWorkerSlots;
  options.exploring_slots = exploring_slots;
  options.seed = 21;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = kEvictionK;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = policy.get();
  spec.requests = kRequests;
  const SimReport result =
      MustValue(Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options));
  const SimulationReport& report = result.flat();
  const double cluster_median = report.LatencySummary().Median();
  const double exploit_median = report.exploiting_latency.empty()
                                    ? 0.0
                                    : report.exploiting_latency.Median();
  std::printf("  exploring %u/%u   cluster median %9.0f us   exploit-only median "
              "%9.0f us   checkpoints %4llu\n",
              exploring_slots, kWorkerSlots, cluster_median, exploit_median,
              static_cast<unsigned long long>(report.checkpoints));
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn::bench;
  std::printf("=== Ablation: fleet exploration amortization ===\n");
  std::printf("BFS, %u concurrent workers, eviction every %u requests, %llu total "
              "requests\n\n",
              kWorkerSlots, kEvictionK, static_cast<unsigned long long>(kRequests));
  const auto& profile = MustFind("BFS");
  for (uint32_t exploring : {0u, 1u, 2u, 4u, 8u}) {
    Row(profile, exploring);
  }
  std::printf("\n(expected shape: 0 exploring workers = no snapshots, cold fleet;\n"
              " a single exploring worker already delivers most of the latency\n"
              " benefit to the other 7 at ~1/8 of the checkpointing cost; more\n"
              " explorers buy faster convergence, not better steady state.)\n");
  return 0;
}
