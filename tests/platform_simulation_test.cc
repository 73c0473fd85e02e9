// Whole-platform runs: many functions on one shared control plane, one
// worker slot each. Trace replays (and repeated replays on persistent state)
// drive a SimEnvironment directly; closed loops go through
// Simulate(kPlatform). Every configuration's run report is pinned to a
// golden digest (SimReport::Digest).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/baseline_policies.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"
#include "src/trace/trace_generator.h"

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

InvocationTrace MakeTrace() {
  InvocationTrace trace;
  // Interleaved invocations of two functions, 1s apart, with a long gap in
  // the middle that exceeds a 60s idle timeout.
  int64_t t = 0;
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(
          trace.Append({i % 2 == 0 ? "MST" : "DynamicHTML", TimePoint::FromMicros(t)})
              .ok());
      t += 1000000;
    }
    t += 120 * 1000000LL;  // 2-minute gap.
  }
  return trace;
}

// A platform deployment: one slot, named after the profile, sub-seed keyed
// by (environment seed, name).
Status Deploy(SimEnvironment& env, const char* profile, const OrchestrationPolicy& policy,
              const EvictionModel& eviction, uint64_t seed) {
  return env.AddDeployment(profile, Profile(profile), policy, eviction,
                           /*worker_slots=*/1, /*exploring_slots=*/1,
                           SimEnvironment::DeploymentSeed(seed, profile));
}

// Replays `trace` in arrival order. Still-warm workers stay warm, so a later
// replay continues the same platform.
Result<SimReport> Replay(SimEnvironment& env, const InvocationTrace& trace) {
  std::vector<SimEnvironment::Arrival> arrivals;
  for (const TraceRecord& record : trace.records()) {
    PRONGHORN_ASSIGN_OR_RETURN(const size_t index, env.DeploymentIndex(record.function));
    arrivals.push_back(SimEnvironment::Arrival{index, record.arrival});
  }
  PRONGHORN_RETURN_IF_ERROR(env.RunArrivals(arrivals));
  return env.TakeReport();
}

TEST(PlatformTopologyTest, RejectsDuplicateDeployments) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimEnvironment env(WorkloadRegistry::Default(), SimOptions{});
  const ColdStartPolicy policy;
  ASSERT_TRUE(Deploy(env, "MST", policy, eviction, 1).ok());
  EXPECT_EQ(Deploy(env, "MST", policy, eviction, 1).code(), StatusCode::kAlreadyExists);

  SimFunctionSpec spec;
  spec.name = "MST";
  spec.profile = &Profile("MST");
  spec.policy = &policy;
  const std::vector<SimFunctionSpec> twice = {spec, spec};
  EXPECT_EQ(Simulate(WorkloadRegistry::Default(), SimTopology::kPlatform, twice,
                     SimOptions{})
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(PlatformTopologyTest, RejectsUndeployedFunctionInTrace) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimEnvironment env(WorkloadRegistry::Default(), SimOptions{});
  const ColdStartPolicy policy;
  ASSERT_TRUE(Deploy(env, "MST", policy, eviction, 1).ok());
  const InvocationTrace trace = MakeTrace();  // Also invokes DynamicHTML.
  EXPECT_EQ(Replay(env, trace).status().code(), StatusCode::kNotFound);
}

TEST(PlatformTopologyTest, ReplaysMultiFunctionTrace) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.seed = 3;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, "MST", *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, "DynamicHTML", *policy, eviction, options.seed).ok());

  auto report = Replay(env, MakeTrace());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Digest(), 0x36a7539cu);
  ASSERT_EQ(report->per_function.size(), 2u);
  EXPECT_EQ(report->per_function[0].function, "DynamicHTML");  // Name order.
  EXPECT_EQ(report->Find("MST")->records.size(), 6u);
  EXPECT_EQ(report->Find("DynamicHTML")->records.size(), 6u);
  EXPECT_EQ(report->latency.count(), 12u);
  // The 2-minute gap evicted both workers once.
  EXPECT_EQ(report->Find("MST")->worker_lifetimes, 2u);
  EXPECT_EQ(report->Find("DynamicHTML")->worker_lifetimes, 2u);
  EXPECT_EQ(report->worker_lifetimes, 4u);
}

TEST(PlatformTopologyTest, FunctionsShareStoresButNotState) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.seed = 4;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, "MST", *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, "DynamicHTML", *policy, eviction, options.seed).ok());

  auto report = Replay(env, MakeTrace());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Digest(), 0xab7d8d6au);

  auto mst_state = env.LoadPolicyState(*env.DeploymentIndex("MST"));
  auto html_state = env.LoadPolicyState(*env.DeploymentIndex("DynamicHTML"));
  ASSERT_TRUE(mst_state.ok());
  ASSERT_TRUE(html_state.ok());
  // Each function learned its own latencies (they differ by ~5x scale).
  EXPECT_GT(mst_state->theta.ExploredCount(), 0u);
  EXPECT_GT(html_state->theta.ExploredCount(), 0u);
  EXPECT_GT(mst_state->theta.At(2), html_state->theta.At(2) * 2);
  // Pools are per-function.
  for (const PoolEntry& entry : mst_state->pool.entries()) {
    EXPECT_EQ(entry.metadata.function, "MST");
  }
  EXPECT_EQ(env.DeploymentIndex("Ghost").status().code(), StatusCode::kNotFound);
}

TEST(PlatformTopologyTest, StatePersistsAcrossReplays) {
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.seed = 5;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, "MST", *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, "DynamicHTML", *policy, eviction, options.seed).ok());
  const size_t mst = *env.DeploymentIndex("MST");

  auto first_report = Replay(env, MakeTrace());
  ASSERT_TRUE(first_report.ok());
  EXPECT_EQ(first_report->Digest(), 0x82a13348u);
  auto first = env.LoadPolicyState(mst);
  ASSERT_TRUE(first.ok());
  const uint32_t explored_after_first = first->theta.ExploredCount();

  auto second_report = Replay(env, MakeTrace());
  ASSERT_TRUE(second_report.ok());
  EXPECT_EQ(second_report->Digest(), 0xecd83579u);
  auto second = env.LoadPolicyState(mst);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->theta.ExploredCount(), explored_after_first);
}

TEST(PlatformTopologyTest, FaultPlanProducesRecoveryStats) {
  // Regression: the platform topology must actually wire its FaultPlan into
  // the shared stores and surface FaultRecoveryStats in the report.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  std::vector<SimFunctionSpec> specs;
  for (const char* name : {"MST", "DynamicHTML"}) {
    SimFunctionSpec spec;
    spec.name = name;
    spec.profile = &Profile(name);
    spec.policy = &*policy;
    spec.requests = 200;
    specs.push_back(spec);
  }
  SimOptions options;
  options.seed = 9;
  options.eviction.kind = FleetEvictionSpec::Kind::kIdleTimeout;
  options.eviction.idle_timeout = Duration::Seconds(60);
  SimOptions faulty = options;
  faulty.faults.get_failure_rate = 0.15;
  faulty.faults.put_failure_rate = 0.15;
  faulty.faults.seed = 77;

  auto report =
      Simulate(WorkloadRegistry::Default(), SimTopology::kPlatform, specs, faulty);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Digest(), 0xa4eb9ddbu);
  EXPECT_EQ(report->latency.count(), 400u);
  // With 15% store failure rates over hundreds of operations, the injected
  // faults must be visible in the platform-level recovery stats.
  EXPECT_GT(report->faults.store_faults + report->faults.db_faults, 0u);

  // A fault-free run of the same platform reports zero injected faults.
  auto clean_report =
      Simulate(WorkloadRegistry::Default(), SimTopology::kPlatform, specs, options);
  ASSERT_TRUE(clean_report.ok());
  EXPECT_EQ(clean_report->Digest(), 0x82e5fa2fu);
  EXPECT_EQ(clean_report->faults.store_faults + clean_report->faults.db_faults, 0u);
}

TEST(PlatformTopologyTest, GeneratedTraceEndToEnd) {
  // Full pipeline: Azure model -> trace -> platform replay.
  const AzureTraceModel model;
  TraceGenerator generator(model, 6);
  auto trace = generator.GenerateTrace(
      {{"MST", 85.0}, {"Thumbnailer", 80.0}}, Duration::Seconds(900));
  ASSERT_TRUE(trace.ok());
  ASSERT_FALSE(trace->empty());

  IdleTimeoutEviction idle(Duration::Seconds(600));
  MaxLifetimeEviction lifetime(Duration::Seconds(1200));
  AnyOfEviction eviction({&idle, &lifetime});
  SimOptions options;
  options.seed = 7;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Deploy(env, "MST", *policy, eviction, options.seed).ok());
  ASSERT_TRUE(Deploy(env, "Thumbnailer", *policy, eviction, options.seed).ok());

  auto report = Replay(env, *trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Digest(), 0xba30192eu);
  EXPECT_EQ(report->latency.count(), trace->size());
  EXPECT_GT(report->object_store.put_count, 0u);  // Checkpoints were uploaded.
}

}  // namespace
}  // namespace pronghorn
