// The benchmark's traced run: a kFleet simulation rebuilt from the
// simulator's public pieces, with timing decorators around each layer.
//
// Simulate(kFleet) runs every deployment as its own single-deployment
// environment (FleetSimulation -> ClusterSimulation -> SimEnvironment). This
// file assembles the same per-deployment environment by hand — Orchestrator,
// SimCore, PolicyStateStore, InMemoryKvDatabase, Flat/DedupSnapshotStore,
// CriuLikeEngine and, in service mode, ServiceClient over one shared
// OrchestratorService — so the decorators can sit on every seam. Deployments
// run serially on the calling thread and fold into a StreamingAccumulator, so
// the result is directly comparable with a Simulate() report (digest,
// latency histogram, per-function lifecycle counters). That comparison is the
// benchmark's fidelity check: if this file ever drifts from the simulator's
// wiring, the digests stop matching and the workload fails.

#ifndef PRONGHORN_PERFBENCH_TRACED_FLEET_H_
#define PRONGHORN_PERFBENCH_TRACED_FLEET_H_

#include <cstdint>
#include <span>

#include "src/platform/report_io.h"
#include "src/platform/simulate.h"
#include "src/service/orchestrator_service.h"

namespace pronghorn::perfbench {

// Which layers get a timing decorator. The traced run decorates all of them;
// the self-test switches them one at a time to show each forwards unchanged.
struct Decorations {
  bool policy = true;
  bool engine = true;
  bool store = true;
  bool kv = true;
  bool backend = true;  // SplitLocalBackend, or TimedServiceBackend in service mode.

  static Decorations None() { return {false, false, false, false, false}; }
};

// Layer counters gathered from the rebuilt deployments (sums over all).
struct TracedFleet {
  StreamingAccumulator::Merged merged;
  uint64_t state_cache_hits = 0;
  uint64_t state_cache_misses = 0;
  uint64_t cas_attempts = 0;
  uint64_t cas_conflicts = 0;
  uint64_t image_bytes = 0;  // Encoded checkpoint images (engine decorated only).
  uint64_t images = 0;
  PhysicalAccounting physical;  // Summed over the per-deployment stores.
  uint64_t deployments = 0;
  ServiceStatsSnapshot service;  // Zero unless service mode.
};

// The configuration FleetSimulation::Run gives the service its shards share.
ServiceConfig ServiceConfigFor(const SimOptions& options);

// Runs the fleet described by (`functions`, `options`) as Simulate(kFleet)
// would, serially, with the requested decorations. Chaos (options.faults),
// observability sinks, simulation checkpoints, bounded retention and the
// delta engine are outside the benchmark's workloads and are rejected.
Result<TracedFleet> RunTracedFleet(const WorkloadRegistry& registry,
                                   std::span<const SimFunctionSpec> functions,
                                   const SimOptions& options,
                                   Decorations decorations = Decorations{});

}  // namespace pronghorn::perfbench

#endif  // PRONGHORN_PERFBENCH_TRACED_FLEET_H_
