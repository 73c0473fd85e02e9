// Single-function runs: Simulate(kSingle) with one worker slot for closed
// loops, and a one-slot SimEnvironment deployment for trace replays and the
// engine / policy-state accessors. Every configuration's flattened report is
// pinned to a golden CRC (ClusterReportCrc32).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/baseline_policies.h"
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

PolicyConfig TestConfig(uint32_t beta) {
  PolicyConfig config;
  config.beta = beta;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  return config;
}

// Simulate(kSingle) with one worker slot evicted every `eviction_k` requests.
SimulationReport RunSingle(const char* profile, const OrchestrationPolicy& policy,
                           uint64_t eviction_k, SimOptions options, uint64_t requests) {
  options.worker_slots = 1;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = eviction_k;
  SimFunctionSpec spec;
  spec.name = profile;
  spec.profile = &Profile(profile);
  spec.policy = &policy;
  spec.requests = requests;
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report->per_function.front().report : SimulationReport{};
}

// Replays `times` on a one-slot deployment of `profile` (sub-seed =
// options.seed), retiring the last worker at the end like a closed loop.
Result<SimulationReport> ReplayTrace(const char* profile, const OrchestrationPolicy& policy,
                                     const EvictionModel& eviction,
                                     const SimOptions& options,
                                     const std::vector<TimePoint>& times) {
  SimEnvironment env(WorkloadRegistry::Default(), options);
  PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(profile, Profile(profile), policy, eviction,
                                              /*worker_slots=*/1, /*exploring_slots=*/1,
                                              options.seed));
  std::vector<SimEnvironment::Arrival> arrivals;
  for (const TimePoint time : times) {
    arrivals.push_back(SimEnvironment::Arrival{0, time});
  }
  PRONGHORN_RETURN_IF_ERROR(env.RunArrivals(arrivals));
  env.RetireAllWorkers();
  return env.TakeFlatReport();
}

TEST(SingleFunctionTest, ClosedLoopProducesOneRecordPerRequest) {
  const ColdStartPolicy policy;
  const SimulationReport report = RunSingle("DynamicHTML", policy, 4, SimOptions{}, 100);
  EXPECT_EQ(ClusterReportCrc32(report), 0x5def39feu);
  EXPECT_EQ(report.records.size(), 100u);
  for (size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].global_index, i);
    EXPECT_GT(report.records[i].latency, Duration::Zero());
  }
  // Eviction every k bounds lifetimes.
  EXPECT_EQ(report.worker_lifetimes, 25u);
  EXPECT_EQ(report.cold_starts, 25u);  // Cold policy never restores.
  EXPECT_EQ(report.restores, 0u);
  // Every 4th record begins a new lifetime.
  for (size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].first_of_lifetime, i % 4 == 0) << i;
  }
}

TEST(SingleFunctionTest, ColdPolicyMaturityResetsPerLifetime) {
  const ColdStartPolicy policy;
  const SimulationReport report = RunSingle("Hash", policy, 3, SimOptions{}, 30);
  EXPECT_EQ(ClusterReportCrc32(report), 0xcfd72c93u);
  for (size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].request_number, i % 3 + 1) << i;
  }
}

TEST(SingleFunctionTest, AfterFirstPolicyPinsMaturity) {
  const CheckpointAfterFirstPolicy policy{TestConfig(1)};
  const SimulationReport report = RunSingle("Hash", policy, 1, SimOptions{}, 50);
  EXPECT_EQ(ClusterReportCrc32(report), 0x392d6280u);
  EXPECT_EQ(report.checkpoints, 1u);
  EXPECT_EQ(report.cold_starts, 1u);
  EXPECT_EQ(report.restores, 49u);
  // Every post-snapshot request executes at maturity 2, forever.
  for (size_t i = 1; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].request_number, 2u) << i;
  }
}

TEST(SingleFunctionTest, RequestCentricMaturityGrowsOverTime) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(1));
  ASSERT_TRUE(policy.ok());
  const SimulationReport report = RunSingle("DynamicHTML", *policy, 1, SimOptions{}, 400);
  EXPECT_EQ(ClusterReportCrc32(report), 0x4edd805eu);
  ASSERT_EQ(report.records.size(), 400u);
  // The request-number chain must reach the W boundary through exploration.
  uint64_t max_maturity = 0;
  for (const RequestRecord& record : report.records) {
    max_maturity = std::max(max_maturity, record.request_number);
  }
  EXPECT_GE(max_maturity, 100u);
  // And late requests should mostly run at high maturity.
  uint64_t late_sum = 0;
  for (size_t i = 350; i < 400; ++i) {
    late_sum += report.records[i].request_number;
  }
  EXPECT_GT(late_sum / 50, 60u);
}

TEST(SingleFunctionTest, DeterministicAcrossRuns) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(4));
  ASSERT_TRUE(policy.ok());
  SimOptions options;
  options.seed = 1234;
  const SimulationReport a = RunSingle("MST", *policy, 4, options, 150);
  const SimulationReport b = RunSingle("MST", *policy, 4, options, 150);
  EXPECT_EQ(ClusterReportCrc32(a), 0xe63396e5u);
  EXPECT_EQ(ClusterReportCrc32(b), 0xe63396e5u);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].latency, b.records[i].latency) << i;
    EXPECT_EQ(a.records[i].request_number, b.records[i].request_number);
  }
}

TEST(SingleFunctionTest, SeedsChangeOutcomes) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(4));
  ASSERT_TRUE(policy.ok());
  SimOptions a;
  a.seed = 1;
  SimOptions b;
  b.seed = 2;
  const SimulationReport report_a = RunSingle("MST", *policy, 4, a, 50);
  const SimulationReport report_b = RunSingle("MST", *policy, 4, b, 50);
  EXPECT_EQ(ClusterReportCrc32(report_a), 0x4f554308u);
  EXPECT_EQ(ClusterReportCrc32(report_b), 0x6ebcfbddu);
  bool any_difference = false;
  for (size_t i = 0; i < 50; ++i) {
    any_difference |= report_a.records[i].latency != report_b.records[i].latency;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SingleFunctionTest, StartupOnCriticalPathInflatesFirstRequests) {
  const ColdStartPolicy policy;
  SimOptions off_path;
  off_path.seed = 9;
  off_path.input_noise = false;
  SimOptions on_path = off_path;
  on_path.lifecycle.startup_on_critical_path = true;

  const SimulationReport report_off = RunSingle("Hash", policy, 5, off_path, 20);
  const SimulationReport report_on = RunSingle("Hash", policy, 5, on_path, 20);
  EXPECT_EQ(ClusterReportCrc32(report_off), 0x1d250efbu);
  EXPECT_EQ(ClusterReportCrc32(report_on), 0x0b2c722du);

  const Duration cold_init = Profile("Hash").cold_init;
  for (size_t i = 0; i < 20; ++i) {
    const Duration off_latency = report_off.records[i].latency;
    const Duration on_latency = report_on.records[i].latency;
    if (report_on.records[i].first_of_lifetime) {
      EXPECT_GE(on_latency, cold_init);
      EXPECT_EQ(on_latency, off_latency + cold_init);
    } else {
      EXPECT_EQ(on_latency, off_latency);
    }
  }
}

TEST(SingleFunctionTest, TraceRejectsUnsortedArrivals) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(600));
  const std::vector<TimePoint> arrivals = {TimePoint::FromMicros(100),
                                           TimePoint::FromMicros(50)};
  EXPECT_EQ(ReplayTrace("MST", policy, eviction, SimOptions{}, arrivals).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SingleFunctionTest, TraceIdleTimeoutEvicts) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.input_noise = false;
  // Three bursts separated by gaps beyond the 60s timeout.
  std::vector<TimePoint> arrivals;
  for (int burst = 0; burst < 3; ++burst) {
    const int64_t base = burst * 300 * 1000000LL;
    for (int i = 0; i < 4; ++i) {
      arrivals.push_back(TimePoint::FromMicros(base + i * 1000000LL));
    }
  }
  auto report = ReplayTrace("DynamicHTML", policy, eviction, options, arrivals);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ClusterReportCrc32(*report), 0x5254a503u);
  EXPECT_EQ(report->worker_lifetimes, 3u);
  EXPECT_EQ(report->records.size(), 12u);
}

TEST(SingleFunctionTest, TraceQueueingDelaysBackToBackArrivals) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(600));
  SimOptions options;
  options.input_noise = false;
  // Two arrivals 1ms apart; Video takes seconds, so the second queues.
  const std::vector<TimePoint> arrivals = {TimePoint::FromMicros(0),
                                           TimePoint::FromMicros(1000)};
  auto report = ReplayTrace("Video", policy, eviction, options, arrivals);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ClusterReportCrc32(*report), 0x13c8e0d9u);
  ASSERT_EQ(report->records.size(), 2u);
  EXPECT_GT(report->records[1].latency,
            report->records[0].latency - Duration::Millis(500));
}

TEST(SingleFunctionTest, ReportAccountingIsConsistent) {
  const auto policy = RequestCentricPolicy::Create(TestConfig(4));
  ASSERT_TRUE(policy.ok());
  auto eviction = EveryKRequestsEviction::Create(4);
  ASSERT_TRUE(eviction.ok());
  const SimOptions options;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  ASSERT_TRUE(env.AddDeployment("BFS", Profile("BFS"), *policy, **eviction,
                                /*worker_slots=*/1, /*exploring_slots=*/1, options.seed)
                  .ok());
  ASSERT_TRUE(env.RunClosedLoop(200).ok());
  env.RetireAllWorkers();
  const SimulationReport report = env.TakeFlatReport();
  // The borrowed-model environment and Simulate(kSingle) are one run.
  EXPECT_EQ(ClusterReportCrc32(report), 0x0523f9f8u);
  EXPECT_EQ(ClusterReportCrc32(RunSingle("BFS", *policy, 4, options, 200)), 0x0523f9f8u);

  EXPECT_EQ(report.worker_lifetimes, report.cold_starts + report.restores);
  EXPECT_EQ(report.overheads.requests_served, 200u);
  EXPECT_EQ(report.overheads.worker_starts, report.worker_lifetimes);
  EXPECT_EQ(report.overheads.checkpoints_taken, report.checkpoints);
  EXPECT_EQ(report.checkpoints, env.engine(0).checkpoints_taken());
  EXPECT_EQ(report.restores, env.engine(0).restores_performed());
  // Uploads happened for every checkpoint; pool bounded by C.
  EXPECT_EQ(report.object_store.put_count, report.checkpoints);
  auto state = env.LoadPolicyState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_LE(state->pool.size(), 12u);
  EXPECT_GT(report.end_time.ToMicros(), 0);
}

TEST(SingleFunctionTest, CheckpointBlockingDelaysQueuedArrival) {
  // With checkpoint_blocks_requests, a request arriving during the
  // checkpoint downtime waits for it; otherwise checkpointing is invisible.
  const auto policy = RequestCentricPolicy::Create(TestConfig(2));
  ASSERT_TRUE(policy.ok());
  auto eviction = EveryKRequestsEviction::Create(100);
  ASSERT_TRUE(eviction.ok());

  // Two arrivals 1ms apart: the first triggers a checkpoint (cold worker
  // plans one within beta=2... may land on request 1 or 2), the second
  // queues right behind it.
  const std::vector<TimePoint> arrivals = {TimePoint::FromMicros(0),
                                           TimePoint::FromMicros(1000)};
  Duration latency_no_block;
  Duration latency_block;
  for (bool blocks : {false, true}) {
    SimOptions options;
    options.seed = 99;
    options.input_noise = false;
    options.lifecycle.checkpoint_blocks_requests = blocks;
    auto report = ReplayTrace("DynamicHTML", *policy, **eviction, options, arrivals);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(ClusterReportCrc32(*report), blocks ? 0xccec46ffu : 0x1f022a2au);
    ASSERT_EQ(report->records.size(), 2u);
    // Only meaningful when the checkpoint fired on the first request.
    if (!report->records[0].checkpoint_after) {
      return;  // Plan landed on request 2; nothing to compare this seed.
    }
    (blocks ? latency_block : latency_no_block) = report->records[1].latency;
  }
  // CRIU downtime is ~75ms for DynamicHTML; the blocked arrival pays it.
  EXPECT_GT(latency_block, latency_no_block + Duration::Millis(30));
}

TEST(SingleFunctionTest, WorkerOccupancyAccounting) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(60));
  SimOptions options;
  options.input_noise = false;
  options.lifecycle.idle_resource_hold = eviction.timeout();
  // Two bursts of 3 back-to-back requests separated by a 10-minute gap: the
  // worker is evicted once (holding memory for the 60s idle hold) and the
  // final worker is accounted up to the end of the run.
  std::vector<TimePoint> arrivals;
  for (int burst = 0; burst < 2; ++burst) {
    const int64_t base = burst * 600 * 1000000LL;
    for (int i = 0; i < 3; ++i) {
      arrivals.push_back(TimePoint::FromMicros(base + i * 100000LL));
    }
  }
  auto report = ReplayTrace("DynamicHTML", policy, eviction, options, arrivals);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ClusterReportCrc32(*report), 0xf6875c9cu);
  EXPECT_EQ(report->worker_lifetimes, 2u);
  // First worker: ~0.3s serving + 60s idle hold; second: ~0.3s to run end.
  const double alive_s = report->total_worker_alive_time.ToSeconds();
  EXPECT_GT(alive_s, 60.0);
  EXPECT_LT(alive_s, 75.0);
  // Memory-time is alive time weighted by the ~52 MB footprint.
  EXPECT_NEAR(report->worker_memory_time_mb_s / alive_s, 52.0, 6.0);
}

TEST(SingleFunctionTest, OccupancyScalesWithIdleHold) {
  const ColdStartPolicy policy;
  IdleTimeoutEviction eviction(Duration::Seconds(300));
  std::vector<TimePoint> arrivals;
  for (int i = 0; i < 5; ++i) {
    arrivals.push_back(TimePoint::FromMicros(i * 600 * 1000000LL));  // 10-min gaps.
  }
  double memory_time[2];
  int idx = 0;
  for (int64_t hold_s : {0, 300}) {
    SimOptions options;
    options.input_noise = false;
    options.lifecycle.idle_resource_hold = Duration::Seconds(static_cast<double>(hold_s));
    auto report = ReplayTrace("DynamicHTML", policy, eviction, options, arrivals);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(ClusterReportCrc32(*report), hold_s == 0 ? 0xbccf7952u : 0x1d30868fu);
    memory_time[idx++] = report->worker_memory_time_mb_s;
  }
  EXPECT_GT(memory_time[1], memory_time[0] * 10);
}

TEST(SingleFunctionTest, InputNoiseWidensDistribution) {
  const ColdStartPolicy policy;
  SimOptions noisy;
  noisy.seed = 5;
  SimOptions quiet = noisy;
  quiet.input_noise = false;

  const SimulationReport report_noisy = RunSingle("PageRank", policy, 20, noisy, 300);
  const SimulationReport report_quiet = RunSingle("PageRank", policy, 20, quiet, 300);
  EXPECT_EQ(ClusterReportCrc32(report_noisy), 0x86ea27bbu);
  EXPECT_EQ(ClusterReportCrc32(report_quiet), 0xc79325e5u);

  const auto noisy_summary = report_noisy.LatencySummary();
  const auto quiet_summary = report_quiet.LatencySummary();
  const double noisy_iqr = noisy_summary.Quantile(75) / noisy_summary.Quantile(25);
  const double quiet_iqr = quiet_summary.Quantile(75) / quiet_summary.Quantile(25);
  EXPECT_GT(noisy_iqr, quiet_iqr * 2.0);
  // Footnote 4: compute-bound IQR spans over an order of magnitude.
  EXPECT_GT(noisy_iqr, 5.0);
}

}  // namespace
}  // namespace pronghorn
