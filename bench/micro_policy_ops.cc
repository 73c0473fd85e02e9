// Microbenchmarks of the orchestration hot paths (google-benchmark). These
// quantify the in-process cost of the policy's decisions — the paper's
// Figure 7 overheads are dominated by database round trips, but the CPU cost
// of softmax selection, EWMA updates, pool pruning, and snapshot codecs is
// what a production (non-Python) orchestrator implementation would pay.
// The vectorized kernels alone (softmax, weight fold) are timed against their
// scalar references by perf_suite's gated micro_policy_ops rows.

#include <benchmark/benchmark.h>

#include "bench/exhibit_common.h"
#include "src/checkpoint/criu_like_engine.h"
#include "src/core/policy_state_store.h"
#include "src/core/request_centric_policy.h"
#include "src/store/kv_database.h"

namespace pronghorn::bench {
namespace {

PolicyState PopulatedState(const PolicyConfig& config, size_t pool_size) {
  PolicyState state(config);
  Rng rng(1);
  for (uint64_t i = 1; i < config.WeightVectorLength(); ++i) {
    state.theta.Update(i, 0.01 + rng.UniformDouble() * 0.1, config.alpha);
  }
  for (uint64_t i = 1; i <= pool_size; ++i) {
    PoolEntry entry;
    entry.metadata.id = SnapshotId{i};
    entry.metadata.function = "bench";
    entry.metadata.request_number = i * (config.max_checkpoint_request / (pool_size + 1));
    entry.object_key = "snapshots/bench/" + std::to_string(i);
    if (!state.pool.Add(std::move(entry)).ok()) {
      std::abort();
    }
  }
  return state;
}

void BM_PolicyOnWorkerStart(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  const PolicyConfig config = PaperPolicyConfig(profile, 20);
  auto policy = RequestCentricPolicy::Create(config);
  const PolicyState state =
      PopulatedState(config, static_cast<size_t>(bench_state.range(0)));
  Rng rng(2);
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(policy->OnWorkerStart(state, rng));
  }
}
BENCHMARK(BM_PolicyOnWorkerStart)->Arg(1)->Arg(6)->Arg(12);

// The real per-request cost (paper §3.2 step 3, Figure 7's dominant
// overhead): the latency observation is written through the Database-backed
// PolicyStateStore — Get, decode (skipped on a cache hit), EWMA update,
// re-encode, CAS. Arg 0/1 toggles the decoded-state cache, so the pair
// quantifies exactly what the cache buys on the knowledge-write path.
void KnowledgeWriteLoop(benchmark::State& bench_state, bool cache) {
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  const PolicyConfig config = PaperPolicyConfig(profile, 20);
  auto policy = RequestCentricPolicy::Create(config);
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "bench", config, nullptr, StateStoreRetryPolicy{}, cache);
  const PolicyState populated = PopulatedState(config, 12);
  if (!store.Update([&](PolicyState& s) { s = populated; }).ok()) {
    std::abort();
  }
  uint64_t request = 1;
  for (auto _ : bench_state) {
    const Status status = store.Update([&](PolicyState& s) {
      policy->OnRequestComplete(s, request, Duration::Millis(10));
    });
    benchmark::DoNotOptimize(status);
    request = request % 100 + 1;
  }
}

void BM_PolicyOnRequestComplete(benchmark::State& bench_state) {
  KnowledgeWriteLoop(bench_state, /*cache=*/true);
}
BENCHMARK(BM_PolicyOnRequestComplete);

void BM_PolicyOnRequestCompleteNoCache(benchmark::State& bench_state) {
  KnowledgeWriteLoop(bench_state, /*cache=*/false);
}
BENCHMARK(BM_PolicyOnRequestCompleteNoCache);

// The raw in-memory EWMA blend alone (the pre-store cost the old
// BM_PolicyOnRequestComplete measured); already O(1).
void BM_ThetaUpdate(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  const PolicyConfig config = PaperPolicyConfig(profile, 20);
  auto policy = RequestCentricPolicy::Create(config);
  PolicyState state = PopulatedState(config, 12);
  uint64_t request = 1;
  for (auto _ : bench_state) {
    policy->OnRequestComplete(state, request, Duration::Millis(10));
    request = request % 100 + 1;
  }
}
BENCHMARK(BM_ThetaUpdate);

void BM_PoolPrune(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  const PolicyConfig config = PaperPolicyConfig(profile, 20);
  auto policy = RequestCentricPolicy::Create(config);
  Rng rng(3);
  for (auto _ : bench_state) {
    bench_state.PauseTiming();
    PolicyState state = PopulatedState(config, 13);  // One over capacity.
    bench_state.ResumeTiming();
    benchmark::DoNotOptimize(policy->OnSnapshotAdded(state, rng));
  }
}
BENCHMARK(BM_PoolPrune);

void BM_PolicyStateCodec(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("HTMLRendering");  // W = 200.
  const PolicyConfig config = PaperPolicyConfig(profile, 20);
  const PolicyState state = PopulatedState(config, 12);
  for (auto _ : bench_state) {
    const auto encoded = EncodePolicyState(state);
    auto decoded = DecodePolicyState(encoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_PolicyStateCodec);

void BM_ProcessExecute(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("BFS");
  RuntimeProcess process = RuntimeProcess::ColdStart(profile, 4);
  uint64_t id = 0;
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(process.Execute({id++, 1.0}));
  }
}
BENCHMARK(BM_ProcessExecute);

void BM_SnapshotEncodeDecode(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("BFS");
  RuntimeProcess process = RuntimeProcess::ColdStart(profile, 5);
  for (uint64_t i = 0; i < 100; ++i) {
    process.Execute({i, 1.0});
  }
  CriuLikeEngine engine(6);
  auto checkpoint = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  for (auto _ : bench_state) {
    const auto wire = checkpoint->image.Encode();
    auto decoded = SnapshotImage::Decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_SnapshotEncodeDecode);

void BM_CheckpointRestoreRoundTrip(benchmark::State& bench_state) {
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  RuntimeProcess process = RuntimeProcess::ColdStart(profile, 7);
  for (uint64_t i = 0; i < 50; ++i) {
    process.Execute({i, 1.0});
  }
  CriuLikeEngine engine(8);
  uint64_t id = 1;
  for (auto _ : bench_state) {
    auto checkpoint = engine.Checkpoint(process, SnapshotId{id++}, TimePoint());
    auto restored = engine.Restore(checkpoint->image, WorkloadRegistry::Default());
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_CheckpointRestoreRoundTrip);

void BM_SimulatedRequestEndToEnd(benchmark::State& bench_state) {
  // Full-stack cost of one simulated request (execution + DB round trip).
  const WorkloadProfile& profile = MustFind("DynamicHTML");
  const PolicyConfig config = PaperPolicyConfig(profile, 20);
  auto policy = RequestCentricPolicy::Create(config);
  auto eviction = EveryKRequestsEviction::Create(20);
  SimOptions options;
  options.seed = 9;
  SimEnvironment env(WorkloadRegistry::Default(), options);
  MustOk(env.AddDeployment(profile.name, profile, *policy, **eviction, /*worker_slots=*/1,
                           /*exploring_slots=*/1, options.seed));
  for (auto _ : bench_state) {
    MustOk(env.RunClosedLoop(1));
    env.RetireAllWorkers();
    SimulationReport report = env.TakeFlatReport();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SimulatedRequestEndToEnd);

}  // namespace
}  // namespace pronghorn::bench

BENCHMARK_MAIN();
