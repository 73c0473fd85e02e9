// Golden equivalence: every topology of Simulate(), and a SimEnvironment
// wired the same way by hand, reproduce the digests pinned for these
// configurations bit-for-bit — at any thread count and with or without an
// observability sink. The constants were produced by the per-topology driver
// classes that Simulate() and SimEnvironment replaced; they are never
// re-baselined.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/request_centric_policy.h"
#include "src/obs/sink.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_environment.h"
#include "src/platform/simulate.h"

namespace pronghorn {
namespace {

// Flattened single-function reports (ClusterReportCrc32).
constexpr uint32_t kBfsCriu = 0xbf2412fdu;    // BFS, seed 11, 200 requests.
constexpr uint32_t kBfsDelta = 0x955a5896u;   // ... with the delta engine.
constexpr uint32_t kBfsFaults = 0xa3fd3d96u;  // ... under a fault plan.
constexpr uint32_t kMstCriu = 0xc7688c18u;    // MST, seed 12, 150 requests.
constexpr uint32_t kMstDelta = 0x81e92087u;
constexpr uint32_t kGoldenFlat = 0xebc62c1du;  // DynamicHTML, seed 21, 300.
// Run reports (SimReport::Digest).
constexpr uint32_t kGoldenDigest = 0xaca40728u;  // DynamicHTML alone.
constexpr uint32_t kGoldenThreeFleet = 0xb71a8622u;  // DynamicHTML + BFS + MST.

constexpr uint64_t kGoldenSeed = 21;
constexpr uint64_t kGoldenRequests = 300;

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

// One worker slot, evicted every 4 requests.
SimOptions SingleSlotOptions(uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  return options;
}

SimFunctionSpec Spec(const char* profile, const OrchestrationPolicy& policy,
                     uint64_t requests) {
  SimFunctionSpec spec;
  spec.name = profile;
  spec.profile = &Profile(profile);
  spec.policy = &policy;
  spec.requests = requests;
  return spec;
}

// The flattened kSingle report through Simulate() and through a hand-wired
// one-slot SimEnvironment with a borrowed eviction model; both must hash to
// `golden`.
void ExpectSingleGolden(const char* profile, const SimOptions& options,
                        uint64_t requests, uint32_t golden) {
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const SimFunctionSpec spec = Spec(profile, *policy, requests);
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ClusterReportCrc32(report->flat()), golden) << profile;
  EXPECT_EQ(report->flat().records.size(), requests);

  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment(profile, Profile(profile), *policy, **eviction,
                                /*worker_slots=*/1, /*exploring_slots=*/1, options.seed)
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(requests).ok());
  env.RetireAllWorkers();
  EXPECT_EQ(ClusterReportCrc32(env.TakeFlatReport()), golden) << profile;
}

TEST(DriverEquivalenceTest, SingleTopologyMatchesGolden) {
  ExpectSingleGolden("BFS", SingleSlotOptions(11), 200, kBfsCriu);
}

TEST(DriverEquivalenceTest, SingleTopologyMatchesGoldenWithDeltaEngine) {
  SimOptions options = SingleSlotOptions(11);
  options.engine_kind = EngineKind::kDelta;
  ExpectSingleGolden("BFS", options, 200, kBfsDelta);
}

TEST(DriverEquivalenceTest, SingleTopologyMatchesGoldenUnderFaults) {
  SimOptions options = SingleSlotOptions(11);
  options.faults.get_failure_rate = 0.08;
  options.faults.put_failure_rate = 0.08;
  options.faults.corruption_rate = 0.02;
  options.faults.seed = 99;
  ExpectSingleGolden("BFS", options, 200, kBfsFaults);
}

TEST(DriverEquivalenceTest, EngineKindChangesTheOutcome) {
  // The engine selection reaches the kernel: the two engines replay to
  // different (pinned) bytes.
  SimOptions options = SingleSlotOptions(12);
  ExpectSingleGolden("MST", options, 150, kMstCriu);
  options.engine_kind = EngineKind::kDelta;
  ExpectSingleGolden("MST", options, 150, kMstDelta);
  EXPECT_NE(kMstCriu, kMstDelta);
}

TEST(DriverEquivalenceTest, GoldenSeedAcrossTopologies) {
  // kSingle keeps sub-seed = seed; kPlatform and kFleet derive it from
  // (seed, name), so a one-function platform and a one-shard fleet walk
  // identical event sequences and share one canonical digest layout.
  ExpectSingleGolden("DynamicHTML", SingleSlotOptions(kGoldenSeed), kGoldenRequests,
                     kGoldenFlat);

  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  const SimFunctionSpec spec = Spec("DynamicHTML", *policy, kGoldenRequests);
  const SimOptions options = SingleSlotOptions(kGoldenSeed);
  for (const SimTopology topology : {SimTopology::kPlatform, SimTopology::kFleet}) {
    auto report = Simulate(WorkloadRegistry::Default(), topology,
                           std::span<const SimFunctionSpec>(&spec, 1), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->Digest(), kGoldenDigest);
    ASSERT_NE(report->Find("DynamicHTML"), nullptr);
    EXPECT_EQ(report->Find("DynamicHTML")->records.size(), kGoldenRequests);
  }

  // The same platform wired by hand on a SimEnvironment.
  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment("DynamicHTML", Profile("DynamicHTML"), *policy,
                                **eviction, /*worker_slots=*/1, /*exploring_slots=*/1,
                                SimEnvironment::DeploymentSeed(kGoldenSeed, "DynamicHTML"))
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(kGoldenRequests).ok());
  env.RetireAllWorkers();
  EXPECT_EQ(env.TakeReport().Digest(), kGoldenDigest);
}

TEST(DriverEquivalenceTest, ObservabilityAndThreadCountNeverPerturbDigests) {
  // The acceptance bar for the obs layer: fleet digests are bit-identical at
  // every thread count, with the sink attached and detached alike.
  const auto policy = RequestCentricPolicy::Create(TestConfig());
  ASSERT_TRUE(policy.ok());
  std::vector<SimFunctionSpec> specs;
  for (const char* name : {"DynamicHTML", "BFS", "MST"}) {
    specs.push_back(Spec(name, *policy, kGoldenRequests));
  }
  for (const uint32_t threads : {1u, 2u, 8u}) {
    for (const bool with_obs : {false, true}) {
      SimOptions options = SingleSlotOptions(kGoldenSeed);
      options.threads = threads;
      StandardObs obs;
      auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, specs,
                             options, with_obs ? &obs : nullptr);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->Digest(), kGoldenThreeFleet)
          << "threads=" << threads << " obs=" << with_obs;
      if (with_obs) {
        EXPECT_GT(obs.trace().recorded(), 0u);
        EXPECT_FALSE(report->metrics.empty());
      }
    }
  }
}

}  // namespace
}  // namespace pronghorn
