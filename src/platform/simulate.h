// Simulate(): the one-shot simulation entry point for every topology.
//
// Pick a topology, list the functions, pass one SimOptions (optionally with
// an ObsSink), get one SimReport:
//
//   kSingle   — one deployment, options.worker_slots slots (§5.1 runs and
//               the §5.3 explore/exploit split within one function).
//   kPlatform — many deployments on one shared control plane (§3.2).
//   kFleet    — many deployments, each in its own environment, sharded
//               across options.threads and folded canonically (§5.3 fleet
//               amortization).
//
// Each topology is a configuration of SimEnvironment (sim_environment.h).
// Callers that need incremental control — repeated runs on persistent
// learned state, trace replay, a borrowed EvictionModel, or the engine and
// store accessors — drive a SimEnvironment directly instead.
//
// Golden contract (tests/driver_equivalence_test.cc): every topology
// reproduces the digests pinned for it bit-for-bit, at any thread count and
// with or without an observability sink attached.

#ifndef PRONGHORN_SRC_PLATFORM_SIMULATE_H_
#define PRONGHORN_SRC_PLATFORM_SIMULATE_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/obs/sink.h"
#include "src/platform/metrics.h"
#include "src/platform/sim_options.h"
#include "src/workloads/workload_profile.h"

namespace pronghorn {

// How the deployments share infrastructure.
enum class SimTopology {
  // One deployment, one control plane, options.worker_slots slots. The RNG
  // sub-seed is options.seed itself.
  kSingle,
  // Many deployments on ONE shared control plane (global Database + Object
  // Store), one worker slot each, closed loop across all of them; request
  // counts sum into the environment-wide total. Sub-seeds come from
  // SimEnvironment::DeploymentSeed(options.seed, name).
  kPlatform,
  // Many deployments, each its own isolated environment seeded with
  // DeploymentSeed(options.seed, name), sharded across options.threads
  // workers and merged canonically. Per-deployment request counts.
  kFleet,
};

// One function deployment in a Simulate() run. `profile` and `policy` are
// borrowed and must outlive the call. The policy must be stateless per call
// (true of every policy in src/core except a live StopConditionPolicy's
// request counter): kFleet shards share it across threads.
struct SimFunctionSpec {
  // Unique; keys the RNG substream in multi-function runs, the report row,
  // and the service binding. kSingle/kFleet scope the policy state and
  // snapshots by profile->name; kPlatform scopes them by this name.
  std::string name;
  const WorkloadProfile* profile = nullptr;
  const OrchestrationPolicy* policy = nullptr;
  uint64_t requests = 500;
};

// Runs one closed-loop experiment: instantiates the eviction model from
// options.eviction, deploys `functions` under `topology`, drives the closed
// loop, and harvests one SimReport. `obs`, when non-null, overrides
// options.obs for this run (the `Simulate(options, sink)` call shape);
// passing nullptr uses options.obs, which may itself be null (observability
// fully disabled — the zero-cost path). In service mode kFleet shares one
// service across its shards: options.service.instance when the caller owns
// it, otherwise one built for the run.
//
// When options.sim_checkpoint is enabled, the run writes crash-consistent
// checkpoints keyed by ExperimentFingerprint and, with resume set,
// continues from them, reproducing the uninterrupted digest bit-for-bit.
// kFleet checkpoints at completed-deployment granularity (only unfinished
// deployments re-run); kSingle/kPlatform checkpoint at whole-run granularity
// — every deployment's trajectory is a pure function of (seed, name), so a
// mid-run kill deterministically re-runs to the same report, and a finished
// run is served straight from the stored frame. Observability state
// (metrics/trace) is not checkpointed: a resumed run's metrics cover only the
// work it actually re-ran.
Result<SimReport> Simulate(const WorkloadRegistry& registry, SimTopology topology,
                           std::span<const SimFunctionSpec> functions,
                           const SimOptions& options, ObsSink* obs = nullptr);

// The identity a run's checkpoints are keyed by: seed, topology, the
// digest-relevant options, and the (name, requests, slots) of every function,
// order-insensitively. Thread count and other scheduling knobs are excluded.
uint64_t ExperimentFingerprint(SimTopology topology,
                               std::span<const SimFunctionSpec> functions,
                               const SimOptions& options);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIMULATE_H_
