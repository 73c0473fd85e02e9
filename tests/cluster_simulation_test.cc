// Multi-slot single-function runs (§5.3 amortization): Simulate(kSingle)
// with options.worker_slots slots, of which the first exploring_slots
// explore and the rest exploit a shared snapshot pool. Every configuration's
// flattened report is pinned to a golden CRC (ClusterReportCrc32).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/request_centric_policy.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

const WorkloadProfile& Profile(const char* name) {
  auto result = WorkloadRegistry::Default().Find(name);
  EXPECT_TRUE(result.ok());
  return **result;
}

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  return config;
}

SimOptions ClusterOptions(uint32_t slots, uint32_t exploring, uint64_t seed) {
  SimOptions options;
  options.worker_slots = slots;
  options.exploring_slots = exploring;
  options.seed = seed;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  return options;
}

ClusterReport RunCluster(const char* profile, const OrchestrationPolicy& policy,
                         const SimOptions& options, uint64_t requests) {
  SimFunctionSpec spec;
  spec.name = profile;
  spec.profile = &Profile(profile);
  spec.policy = &policy;
  spec.requests = requests;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report->per_function.front().report : ClusterReport{};
}

TEST(MultiSlotFunctionTest, ServesAllRequestsAcrossSlots) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const ClusterReport report =
      RunCluster("DynamicHTML", *policy, ClusterOptions(4, 1, 2), 400);
  EXPECT_EQ(ClusterReportCrc32(report), 0xf7145330u);
  EXPECT_EQ(report.records.size(), 400u);
  // With 4 balanced slots, both roles served requests.
  EXPECT_GT(report.exploring_latency.count(), 0u);
  EXPECT_GT(report.exploiting_latency.count(), 0u);
  EXPECT_EQ(report.exploring_latency.count() + report.exploiting_latency.count(), 400u);
}

TEST(MultiSlotFunctionTest, OnlyExploringSlotsCheckpoint) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  // Nobody explores: no snapshots ever.
  const ClusterReport report =
      RunCluster("DynamicHTML", *policy, ClusterOptions(4, 0, 3), 200);
  EXPECT_EQ(ClusterReportCrc32(report), 0xe80c14dcu);
  EXPECT_EQ(report.checkpoints, 0u);
  EXPECT_EQ(report.restores, 0u);  // Empty pool: all cold starts.
}

TEST(MultiSlotFunctionTest, ExploitersBenefitFromSharedPool) {
  // §5.3: non-exploring workers restore from the snapshots the exploring
  // subset publishes through the shared Database/Object Store. A
  // SimEnvironment runs the same configuration and keeps the Database
  // around to inspect.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  const SimOptions options = ClusterOptions(4, 1, 4);
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment("BFS", Profile("BFS"), *policy, **eviction,
                                options.worker_slots, options.exploring_slots,
                                options.seed)
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(600).ok());
  env.RetireAllWorkers();
  const ClusterReport report = env.TakeFlatReport();
  EXPECT_EQ(ClusterReportCrc32(report), 0x5e82eb51u);
  EXPECT_EQ(ClusterReportCrc32(RunCluster("BFS", *policy, options, 600)), 0x5e82eb51u);
  EXPECT_GT(report.checkpoints, 0u);
  EXPECT_GT(report.restores, 0u);

  // Exploit slots restored snapshots they never created.
  auto state = env.LoadPolicyState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->pool.empty());

  // Exploiters' later requests run at elevated JIT maturity.
  uint64_t late_maturity = 0;
  uint64_t late_count = 0;
  for (size_t i = report.records.size() - 100; i < report.records.size(); ++i) {
    late_maturity += report.records[i].request_number;
    ++late_count;
  }
  EXPECT_GT(late_maturity / late_count, 10u);
}

TEST(MultiSlotFunctionTest, AmortizationReducesCheckpointCount) {
  // More exploit slots => fewer checkpoints for similar served volume.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const ClusterReport all_exploring =
      RunCluster("MST", *policy, ClusterOptions(4, 4, 5), 400);
  const ClusterReport one_exploring =
      RunCluster("MST", *policy, ClusterOptions(4, 1, 5), 400);
  EXPECT_EQ(ClusterReportCrc32(all_exploring), 0xe8b72f57u);
  EXPECT_EQ(ClusterReportCrc32(one_exploring), 0xfc1048d8u);
  EXPECT_LT(one_exploring.checkpoints, all_exploring.checkpoints / 2);
  EXPECT_GT(one_exploring.checkpoints, 0u);
}

TEST(MultiSlotFunctionTest, DeterministicForSeed) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const SimOptions options = ClusterOptions(3, 2, 6);
  const ClusterReport first = RunCluster("Hash", *policy, options, 150);
  const ClusterReport second = RunCluster("Hash", *policy, options, 150);
  EXPECT_EQ(ClusterReportCrc32(first), 0x41b52dcbu);
  ASSERT_EQ(second.records.size(), first.records.size());
  for (size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(second.records[i].latency.ToMicros(), first.records[i].latency.ToMicros())
        << i;
  }
}

TEST(MultiSlotFunctionTest, ExploringSlotsClampedToWorkerSlots) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const ClusterReport report = RunCluster("DFS", *policy, ClusterOptions(2, 99, 7), 50);
  EXPECT_EQ(ClusterReportCrc32(report), 0xf01d771du);
  EXPECT_EQ(report.exploiting_latency.count(), 0u);  // Everyone explores.
}

}  // namespace
}  // namespace pronghorn
