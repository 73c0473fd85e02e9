// Ablation (paper §6 "Tuning Pronghorn"): sensitivity of the request-centric
// policy to its learning knobs — the EWMA proportion alpha, the pool
// capacity C, the retention split p/gamma, and the softmax temperature.
// DESIGN.md calls these out as the design choices worth ablating.

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

constexpr uint32_t kEvictionK = 1;
constexpr uint64_t kRequests = 500;

double MedianFor(const WorkloadProfile& profile, const PolicyConfig& config,
                 uint64_t seed) {
  const auto policy = MustValue(MakePolicy("request-centric", config));
  SimOptions options;
  options.seed = seed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = kEvictionK;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = policy.get();
  spec.requests = kRequests;
  return MustValue(Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                            std::span<const SimFunctionSpec>(&spec, 1), options))
      .flat()
      .MedianLatencyUs();
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn;
  using namespace pronghorn::bench;
  const auto& profile = MustFind("DynamicHTML");
  const PolicyConfig base = PaperPolicyConfig(profile, kEvictionK);
  std::printf("=== Ablation: policy parameter sensitivity (DynamicHTML, eviction 1, "
              "500 requests) ===\n");
  std::printf("paper defaults: alpha=%.2f  C=%u  p=%.0f%%  gamma=%.0f%%  tau=%.1f\n\n",
              base.alpha, base.pool_capacity, base.retain_top_percent,
              base.retain_random_percent, base.softmax_temperature);

  std::printf("EWMA proportion alpha (learning speed vs stability):\n");
  for (double alpha : {0.05, 0.1, 0.3, 0.5, 0.9, 1.0}) {
    PolicyConfig config = base;
    config.alpha = alpha;
    std::printf("  alpha=%.2f   median %9.0f us\n", alpha,
                MedianFor(profile, config, 5));
  }

  std::printf("\nsnapshot pool capacity C (storage vs search breadth; the paper\n"
              "suggests C=2 as the cheap configuration):\n");
  for (uint32_t capacity : {1u, 2u, 4u, 8u, 12u, 24u}) {
    PolicyConfig config = base;
    config.pool_capacity = capacity;
    std::printf("  C=%-3u       median %9.0f us\n", capacity,
                MedianFor(profile, config, 6));
  }

  std::printf("\nretention split p/gamma at pool eviction:\n");
  struct Split {
    double p;
    double gamma;
  };
  for (Split split : {Split{40, 10}, Split{40, 0}, Split{80, 10}, Split{10, 10},
                      Split{10, 50}}) {
    PolicyConfig config = base;
    config.retain_top_percent = split.p;
    config.retain_random_percent = split.gamma;
    std::printf("  p=%3.0f%% gamma=%3.0f%%   median %9.0f us\n", split.p, split.gamma,
                MedianFor(profile, config, 7));
  }

  std::printf("\nsoftmax temperature (exploit sharpness):\n");
  for (double tau : {0.1, 0.5, 1.0, 5.0, 50.0}) {
    PolicyConfig config = base;
    config.softmax_temperature = tau;
    std::printf("  tau=%-5.1f    median %9.0f us\n", tau,
                MedianFor(profile, config, 8));
  }

  std::printf("\n(expected shape: broad plateaus around the paper's defaults --\n"
              " the policy is not hypersensitive; tiny pools and very cold/hot\n"
              " temperatures cost a few percent.)\n");
  return 0;
}
