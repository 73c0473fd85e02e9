// Ablation (paper §6 "Lifetime estimation"): what happens when the cloud
// operator's worker-lifetime estimate beta diverges from the true eviction
// behavior. An underestimate checkpoints earlier than ideal (slower
// exploration per the paper); an overestimate plans checkpoints at request
// numbers the worker may never reach.
//
// We run two eviction regimes. Under DETERMINISTIC every-k eviction, a hard
// overestimate can deadlock exploration: once the first k request numbers are
// explored, all checkpoint probability mass sits beyond reach and no snapshot
// is ever taken. Under GEOMETRIC eviction with mean k — the realistic reading
// of beta as an average — some workers live long enough to reach the planned
// request, which is exactly the paper's §6 argument ("most likely some of
// them will regularly reach the predicted lifetime").

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

constexpr uint32_t kTrueMeanLifetime = 8;
constexpr uint64_t kRequests = 500;

void Row(const WorkloadProfile& profile, uint32_t assumed_beta, bool geometric) {
  PolicyConfig config = PaperPolicyConfig(profile, kTrueMeanLifetime);
  config.beta = assumed_beta;
  const auto policy = MustValue(MakePolicy("request-centric", config));

  std::unique_ptr<EvictionModel> eviction;
  if (geometric) {
    eviction = MustValue(GeometricEviction::Create(kTrueMeanLifetime, /*seed=*/55));
  } else {
    eviction = MustValue(EveryKRequestsEviction::Create(kTrueMeanLifetime));
  }

  SimOptions options;
  options.seed = 77;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  MustOk(env.AddDeployment(profile.name, profile, *policy, *eviction, /*worker_slots=*/1,
                           /*exploring_slots=*/1, options.seed));
  MustOk(env.RunClosedLoop(kRequests));
  env.RetireAllWorkers();
  const SimulationReport report = env.TakeFlatReport();
  const char* relation = assumed_beta < kTrueMeanLifetime   ? "under-estimate"
                         : assumed_beta > kTrueMeanLifetime ? "over-estimate"
                                                            : "exact";
  std::printf("  beta=%-3u (%-14s)  median %9.0f us   checkpoints %4llu   "
              "restores %4llu\n",
              assumed_beta, relation, report.MedianLatencyUs(),
              static_cast<unsigned long long>(report.checkpoints),
              static_cast<unsigned long long>(report.restores));
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn::bench;
  std::printf("=== Ablation: worker-lifetime (beta) mis-estimation ===\n");
  std::printf("true mean lifetime: %u requests; BFS, %llu requests\n", kTrueMeanLifetime,
              static_cast<unsigned long long>(kRequests));
  const auto& profile = MustFind("BFS");

  std::printf("\ndeterministic every-%u eviction (no lifetime variance):\n",
              kTrueMeanLifetime);
  for (uint32_t beta : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    Row(profile, beta, /*geometric=*/false);
  }
  std::printf("  -> hard over-estimates can strand all checkpoint probability mass\n"
              "     beyond the workers' reach (0 checkpoints): an exploration\n"
              "     deadlock the paper's variance argument implicitly rules out.\n");

  std::printf("\ngeometric eviction, mean %u (realistic lifetime variance):\n",
              kTrueMeanLifetime);
  for (uint32_t beta : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    Row(profile, beta, /*geometric=*/true);
  }
  std::printf("  -> with variance, long-lived workers keep reaching planned\n"
              "     checkpoints; both under- and over-estimates degrade gently\n"
              "     (paper §6).\n");
  return 0;
}
