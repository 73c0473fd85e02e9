// Chaos exhibit: graceful degradation of the request-centric policy under an
// injected fault schedule.
//
// The paper's evaluation runs on a healthy control plane; this exhibit asks
// what the policy's headline properties cost when the control plane is not
// healthy. We sweep the transient fault rate applied to every Database and
// Object Store operation (plus a small corruption rate on stored images) and
// report, per rate: the converged median latency, the Table-4 convergence
// request, and what the recovery machinery had to do (fallback restores,
// quarantined snapshots, degraded starts, skipped checkpoints).
//
// Expected shape: at transient fault rates up to ~10% the policy still
// converges within W+100 requests and the median stays near the fault-free
// value — retries, ranked fallback restores, and the quarantine ledger absorb
// the faults off the user path. Past ~20% the convergence point drifts and
// cold starts reappear as restores exhaust their candidate lists.

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

constexpr uint64_t kRequests = 600;
constexpr uint32_t kEvictionK = 4;
constexpr uint64_t kSeed = 42;
constexpr size_t kConvergenceWindow = 20;
constexpr double kConvergenceTolerance = 0.02;

void Row(const WorkloadProfile& profile, double fault_rate) {
  const auto policy =
      MustValue(MakePolicy("request-centric", PaperPolicyConfig(profile, kEvictionK)));

  SimOptions options;
  options.seed = kSeed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = kEvictionK;
  options.faults.get_failure_rate = fault_rate;
  options.faults.put_failure_rate = fault_rate;
  options.faults.delete_failure_rate = fault_rate;
  options.faults.metadata_failure_rate = fault_rate;
  // A fifth of the fault rate as image bit-flips: corruption is rarer than
  // transient unavailability but is the failure the CRC + quarantine path
  // exists for.
  options.faults.corruption_rate = fault_rate / 5.0;
  SimFunctionSpec spec;
  spec.name = profile.name;
  spec.profile = &profile;
  spec.policy = policy.get();
  spec.requests = kRequests;
  const SimReport result =
      MustValue(Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options));
  const SimulationReport* report = &result.flat();

  const auto convergence =
      ConvergenceRequest(report->records, kConvergenceWindow, kConvergenceTolerance);
  char converged[32];
  if (convergence.has_value()) {
    std::snprintf(converged, sizeof(converged), "%8llu",
                  static_cast<unsigned long long>(*convergence));
  } else {
    std::snprintf(converged, sizeof(converged), "%8s", "never");
  }
  const FaultRecoveryStats& faults = report->faults;
  std::printf("  %4.0f%%  %9.0f  %s  %5llu %9llu %11llu %9llu %8llu %9llu\n",
              fault_rate * 100.0, report->MedianLatencyUs(), converged,
              static_cast<unsigned long long>(report->cold_starts),
              static_cast<unsigned long long>(faults.restore_fallbacks),
              static_cast<unsigned long long>(faults.snapshots_quarantined),
              static_cast<unsigned long long>(faults.degraded_starts),
              static_cast<unsigned long long>(faults.checkpoints_skipped),
              static_cast<unsigned long long>(faults.store_faults + faults.db_faults));
}

void Run() {
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  const uint64_t budget =
      PaperPolicyConfig(profile, kEvictionK).max_checkpoint_request + 100;
  std::printf("Chaos degradation: DynamicHTML, request-centric, every-%u eviction, "
              "%llu requests\n",
              kEvictionK, static_cast<unsigned long long>(kRequests));
  std::printf("(expected: converges within W+100 = %llu at fault rates <= 10%%)\n",
              static_cast<unsigned long long>(budget));
  PrintRule();
  std::printf("  rate   median_us  converged  colds fallbacks quarantined  degraded "
              "ckpt_skip  injected\n");
  PrintRule();
  for (const double rate : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    Row(profile, rate);
  }
  PrintRule();
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  pronghorn::bench::Run();
  return 0;
}
