// Ablation (paper §7 related work): keep-alive versus checkpoint-restore.
//
// "Existing approaches that keep containers alive necessarily incur high
// costs to the cloud provider ... Pronghorn provides high performance to
// the end-user while still retaining cloud providers' flexibility on when to
// evict containers." We quantify both sides of that trade on a sparse
// Poisson arrival stream (~1 request/minute): longer idle timeouts keep
// workers warm (low latency, high memory-time); short timeouts with the
// request-centric policy get hot-start latency at a fraction of the
// provider-side occupancy.

#include "bench/exhibit_common.h"
#include "src/trace/trace_generator.h"

namespace pronghorn::bench {
namespace {

std::vector<TimePoint> SparseArrivals(uint64_t seed) {
  // ~1 request per 10 minutes over 24 hours => ~144 requests. The paper's
  // Azure data: ~75% of functions see at most one invocation per 10 minutes.
  Rng rng(seed);
  std::vector<TimePoint> arrivals;
  double t = 0.0;
  while (t < 24.0 * 3600.0) {
    t += rng.Exponential(1.0 / 600.0);
    arrivals.push_back(TimePoint::FromMicros(static_cast<int64_t>(t * 1e6)));
  }
  return arrivals;
}

void Row(const WorkloadProfile& profile, std::string_view name, int64_t idle_timeout_s) {
  const auto policy =
      MustValue(MakePolicy(name, PaperPolicyConfig(profile, /*eviction_k=*/1)));
  IdleTimeoutEviction eviction(Duration::Seconds(static_cast<double>(idle_timeout_s)));
  SimOptions options;
  options.seed = 42;
  options.lifecycle.idle_resource_hold = eviction.timeout();
  SimEnvironment env(WorkloadRegistry::Default(), options);
  MustOk(env.AddDeployment(profile.name, profile, *policy, eviction, /*worker_slots=*/1,
                           /*exploring_slots=*/1, options.seed));
  MustOk(env.RunArrivals(ArrivalsFor(0, SparseArrivals(9))));
  env.RetireAllWorkers();
  const SimulationReport report = env.TakeFlatReport();
  const double gb_minutes = report.worker_memory_time_mb_s / 1024.0 / 60.0;
  std::printf("  %-22s idle-timeout %5llds   median %8.0f us   lifetimes %4llu   "
              "memory-time %7.1f GB-min\n",
              PolicyLabel(name), static_cast<long long>(idle_timeout_s),
              report.MedianLatencyUs(),
              static_cast<unsigned long long>(report.worker_lifetimes), gb_minutes);
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn::bench;
  std::printf("=== Ablation: keep-alive vs checkpoint-restore cost trade ===\n");
  std::printf("BFS, Poisson arrivals ~1 per 10 minutes over 24 hours\n\n");
  const auto& profile = MustFind("BFS");

  std::printf("keep-alive strategies (no checkpointing, pay idle memory):\n");
  for (int64_t timeout_s : {600, 1800, 7200}) {
    Row(profile, "cold", timeout_s);
  }
  std::printf("\ncheckpoint-restore with aggressive eviction:\n");
  for (int64_t timeout_s : {30, 120}) {
    Row(profile, "after-first", timeout_s);
    Row(profile, "request-centric", timeout_s);
  }
  std::printf("\n(expected shape: very long keep-alive approaches warm latency but\n"
              " holds GBs of idle memory; the request-centric policy reaches\n"
              " comparable medians at a fraction of the memory-time, preserving the\n"
              " provider's freedom to evict aggressively.)\n");
  return 0;
}
