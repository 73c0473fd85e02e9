// Ablation: worker provisioning on vs off the request critical path.
//
// The paper's measurements (and our default) keep restore/cold-init off the
// critical path: the platform re-provisions workers asynchronously after
// eviction, so client CDFs only see function execution. Platforms without a
// ready pool pay provisioning on the first request of every lifetime. This
// bench quantifies that regime: checkpoint-restore policies then win twice —
// restore (~tens of ms) is far cheaper than a cold runtime boot (~hundreds
// of ms) AND the restored code is JIT-warm.

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

constexpr uint64_t kRequests = 400;

void Section(const char* benchmark, uint32_t eviction_k) {
  const WorkloadProfile& profile = MustFind(benchmark);
  std::printf("\n%s, eviction every %u request(s):\n", benchmark, eviction_k);
  for (bool on_path : {false, true}) {
    std::printf("  startup %s critical path:\n", on_path ? "ON" : "off");
    for (const std::string_view name : kPaperPolicies) {
      const auto policy = MustValue(MakePolicy(name, PaperPolicyConfig(profile, eviction_k)));
      SimOptions options;
      options.seed = 303;
      options.worker_slots = 1;
      options.exploring_slots = 1;
      options.lifecycle.startup_on_critical_path = on_path;
      options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
      options.eviction.k = eviction_k;
      SimFunctionSpec spec;
      spec.name = profile.name;
      spec.profile = &profile;
      spec.policy = policy.get();
      spec.requests = kRequests;
      const SimReport report =
          MustValue(Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                             std::span<const SimFunctionSpec>(&spec, 1), options));
      const DistributionSummary summary = report.flat().LatencySummary();
      std::printf("    %-22s median %9.0f us   p99 %9.0f us\n", PolicyLabel(name),
                  summary.Median(), summary.Quantile(99));
    }
  }
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  std::printf("=== Ablation: provisioning on vs off the critical path ===\n");
  pronghorn::bench::Section("DynamicHTML", 1);
  pronghorn::bench::Section("HTMLRendering", 1);
  pronghorn::bench::Section("DynamicHTML", 20);
  std::printf("\n(expected shape: off-path matches the paper's figures; on-path at\n"
              " eviction 1 adds the full provisioning cost to every request --\n"
              " cold-start pays runtime boot, snapshot policies pay only restore,\n"
              " so checkpoint-restore dominates even before JIT effects.)\n");
  return 0;
}
