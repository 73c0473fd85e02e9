// The simulation environment: one control plane and the deployments on it.
//
// A SimEnvironment owns the global stores (Database + Object Store), the
// optional fault decorators around them, the simulated clock, the live
// service in service mode, and any number of function deployments. Each
// deployment owns its checkpoint engine, policy-state scope, input model,
// client RNG, and a row of SimCore worker slots (the first `exploring_slots`
// run the exploring policy, the rest a frozen exploit-only wrapper).
//
// Simulate() (simulate.h) is the one-shot surface and builds environments
// itself: one for kSingle, one shared by every deployment for kPlatform, one
// per deployment for kFleet. Use a SimEnvironment directly when a run needs
// incremental control — repeated runs on persistent learned state, trace
// replay (RunArrivals), a borrowed EvictionModel, or the engine/store/policy
// state accessors:
//
//   SimEnvironment env(registry, options);
//   env.AddDeployment(profile.name, profile, policy, eviction,
//                     /*worker_slots=*/1, /*exploring_slots=*/1, options.seed);
//   env.RunClosedLoop(500);          // or RunArrivals(trace arrivals)
//   env.RetireAllWorkers();
//   SimulationReport flat = env.TakeFlatReport();  // or TakeReport()
//
// Determinism contract: every RNG substream keys off the deployment's
// sub-seed (engine = HashCombine(sub_seed, 0xe1), client = 0xc1, slot 0's
// orchestrator = 0x0e, slot i>0 = HashCombine(0x0e, i)), and DeploymentSeed
// derives sub-seeds from (environment seed, deployment name) only — never
// from registration order, thread, or shard index.

#ifndef PRONGHORN_SRC_PLATFORM_SIM_ENVIRONMENT_H_
#define PRONGHORN_SRC_PLATFORM_SIM_ENVIRONMENT_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/checkpoint/criu_like_engine.h"
#include "src/checkpoint/delta_engine.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/orchestrator.h"
#include "src/core/policy.h"
#include "src/core/stop_condition_policy.h"
#include "src/platform/eviction.h"
#include "src/platform/metrics.h"
#include "src/platform/sim_core.h"
#include "src/platform/sim_options.h"
#include "src/service/orchestrator_service.h"
#include "src/store/fault_injection.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"
#include "src/workloads/input_model.h"
#include "src/workloads/workload_profile.h"

namespace pronghorn {

class SimEnvironment {
 public:
  // One request arrival in a trace-driven run, resolved to a deployment.
  struct Arrival {
    size_t deployment = 0;
    TimePoint arrival;
  };

  SimEnvironment(const WorkloadRegistry& registry, SimOptions options);
  ~SimEnvironment();

  SimEnvironment(const SimEnvironment&) = delete;
  SimEnvironment& operator=(const SimEnvironment&) = delete;

  // The RNG sub-seed for a deployment: HashCombine of the environment seed
  // with a stable (FNV-1a) hash of the deployment name. Depends only on
  // (seed, name) — not on thread count, composition, or registration order.
  static uint64_t DeploymentSeed(uint64_t seed, std::string_view name);

  // The live-service configuration `options.service` describes. An
  // environment without a borrowed service.instance builds its private
  // service from this; a kFleet run builds the one service its shards share.
  static ServiceConfig ServiceConfigFor(const SimOptions& options);

  // Registers a deployment with `worker_slots` slots, of which the first
  // `exploring_slots` (clamped to worker_slots) run `policy` and the rest a
  // frozen exploit-only wrapper over it. `profile`, `policy`, and `eviction`
  // are borrowed and must outlive the environment. `sub_seed` scopes every
  // RNG substream of the deployment; single-deployment runs pass their
  // experiment seed, multi-deployment runs pass DeploymentSeed(seed, name).
  //
  // `name` must be unique in the environment: it keys DeploymentIndex, the
  // report row, the trace process and — in service mode — the service
  // binding, which a kFleet run shares across concurrent shards.
  // `state_scope` names the deployment's policy-state keys and snapshot
  // objects ("policy/<scope>/state", "snapshots/<scope>/..."); empty means
  // `name`. Those bytes are digest-covered, which is why kSingle/kFleet keep
  // the profile name there whatever the deployment is called.
  Status AddDeployment(std::string name, const WorkloadProfile& profile,
                       const OrchestrationPolicy& policy,
                       const EvictionModel& eviction, uint32_t worker_slots,
                       uint32_t exploring_slots, uint64_t sub_seed,
                       std::string_view state_scope = {});

  // Closed loop with one outstanding request per slot: each request goes to
  // the slot (across all deployments) that frees earliest, and is issued the
  // moment that slot's previous response reached its client. `request_count`
  // is the environment-wide total.
  Status RunClosedLoop(uint64_t request_count);

  // Trace-driven: serves `arrivals` in order (must be non-decreasing), each
  // on the least-loaded slot of its deployment; a request arriving while
  // every slot is busy queues behind the earliest-free one.
  Status RunArrivals(std::span<const Arrival> arrivals);

  // Retires every still-warm worker at the current simulated time, folding
  // occupancy accounting into the per-deployment reports. Closed-loop runs
  // call this at the end; trace replays that keep sessions warm across calls
  // do not.
  void RetireAllWorkers();

  // Harvests results accumulated since the previous Take*. Records and
  // lifecycle counters are per-epoch; store accounting, overheads, faults,
  // and end_time are cumulative snapshots of the environment (so repeated
  // runs on one environment report like one long experiment).
  //
  // TakeReport: every deployment's report in name order plus the
  // environment-wide accounting. Per-function `faults` cover that
  // deployment's orchestrators and state store; the report-level `faults`
  // additionally fold in the shared store/database decorators, which cannot
  // be attributed to a single function.
  SimReport TakeReport();
  // Single-deployment flattening: the per-function report with the
  // environment-wide store accounting and decorator fault stats folded in.
  // Requires exactly one deployment.
  SimulationReport TakeFlatReport();

  // Deployment index by name; kNotFound for unknown names.
  Result<size_t> DeploymentIndex(std::string_view name) const;

  // Read-only access for tests and exhibits to the raw in-memory object
  // store (not the fault decorator).
  const InMemoryObjectStore& raw_object_store() const { return object_store_; }
  // The snapshot store the deployments actually talk to (fault decorator
  // included when chaos is on).
  SnapshotStore& snapshot_store() { return active_snapshot_store(); }
  SimClock& clock() { return clock_; }

  // Per-deployment handles.
  const CheckpointEngine& engine(size_t deployment) const {
    return *deployments_[deployment].engine;
  }
  const PolicyStateStore& state_store(size_t deployment) const {
    return *deployments_[deployment].state_store;
  }
  Orchestrator& orchestrator(size_t deployment, size_t slot) {
    return deployments_[deployment].slots[slot].orchestrator();
  }
  Result<PolicyState> LoadPolicyState(size_t deployment) const {
    return deployments_[deployment].state_store->Load();
  }

  // The live service every slot talks to in service mode; null otherwise.
  OrchestratorService* service() { return service_; }

 private:
  struct Deployment {
    std::string name;
    const WorkloadProfile* profile = nullptr;
    std::unique_ptr<StopConditionPolicy> exploit_policy;
    std::unique_ptr<CheckpointEngine> engine;
    std::unique_ptr<PolicyStateStore> state_store;
    std::unique_ptr<InputModel> input_model;
    Rng client_rng{0};
    std::vector<SimCore> slots;
    // Service mode only: one wire client per slot, installed as the slot's
    // backend (heap-allocated so the backend pointers survive vector moves).
    std::vector<std::unique_ptr<ServiceClient>> clients;
    SimulationReport report;
  };

  KvDatabase& active_database();
  SnapshotStore& active_snapshot_store();
  // Builds the request, draws its input scale, and serves it on `slot`.
  Status Dispatch(Deployment& deployment, SimCore& slot, TimePoint arrival);
  // Folds cumulative orchestrator/state-store stats into an epoch report.
  void FinishReport(Deployment& deployment, SimulationReport& report);
  // Folds the shared store/database fault decorators' injection counters.
  void AccumulateDecoratorFaults(FaultRecoveryStats& faults) const;

  const WorkloadRegistry& registry_;
  SimOptions options_;

  SimClock clock_;
  InMemoryKvDatabase db_;
  InMemoryObjectStore object_store_;
  // Engaged only when options.faults is active; deployments then talk to the
  // stores through these decorators.
  std::optional<FaultyKvDatabase> faulty_db_;
  // The snapshot store behind every orchestrator: a FlatSnapshotStore over
  // object_store_, or a DedupSnapshotStore, per options.store.kind.
  std::unique_ptr<SnapshotStore> base_snapshot_store_;
  std::optional<FaultySnapshotStore> faulty_snapshot_store_;
  std::vector<Deployment> deployments_;
  uint64_t next_request_id_ = 1;

  // Service mode: `service_` is what the slots' clients call — either the
  // borrowed shared instance (fleet runs) or `owned_service_`. Declared last
  // so a private service shuts its shard threads down before anything it
  // borrows (orchestrators, clock, stores) is destroyed.
  OrchestratorService* service_ = nullptr;
  std::unique_ptr<OrchestratorService> owned_service_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIM_ENVIRONMENT_H_
