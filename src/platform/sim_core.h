// The worker-lifecycle kernel behind every simulation topology.
//
// One state machine: provision a worker when none is warm (restore, cold
// start, or degraded start — the Orchestrator decides), serve the request,
// account an optional checkpoint, and evict per the eviction model. A SimCore
// is one warm slot driven by the simulated clock, writing into a
// SimulationReport. Topologies differ only in how many cores they
// instantiate and how requests are dispatched onto them (see
// sim_environment.h).

#ifndef PRONGHORN_SRC_PLATFORM_SIM_CORE_H_
#define PRONGHORN_SRC_PLATFORM_SIM_CORE_H_

#include <memory>
#include <optional>

#include "src/common/clock.h"
#include "src/core/orchestrator.h"
#include "src/platform/eviction.h"
#include "src/platform/metrics.h"
#include "src/platform/sim_options.h"
#include "src/service/backend.h"

namespace pronghorn {

// One worker slot: owns its Orchestrator and the session state of the
// currently-warm worker (if any). Movable so environments can keep slots in
// plain vectors; not copyable.
class SimCore {
 public:
  // `eviction` and `clock` are borrowed and must outlive the core.
  SimCore(std::unique_ptr<Orchestrator> orchestrator, const EvictionModel* eviction,
          SimClock* clock, LifecycleOptions lifecycle, bool exploring);

  SimCore(SimCore&&) = default;
  SimCore& operator=(SimCore&&) = default;
  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  // Serves one request arriving at `arrival`: provisions a worker if none is
  // warm, runs the request through the Orchestrator, advances the clock to
  // the completion, and appends a RequestRecord (plus lifecycle counters and
  // checkpoint accounting) to `report`. The record's global_index is the
  // report's record count, so per-report indices stay dense whatever slot
  // served the request.
  Status Serve(const FunctionRequest& request, TimePoint arrival,
               SimulationReport& report);

  // Applies the eviction model after a completed request. `next_arrival` is
  // the next request this slot's deployment will see (equal to the completion
  // time in closed-loop runs); when `has_next` is false the decision is
  // skipped — the final worker is retired by RetireWorker instead. An evicted
  // worker's alive time and memory-time are folded into `report`, including
  // the idle_resource_hold tail it occupies after its last response.
  void MaybeEvict(bool has_next, TimePoint next_arrival, SimulationReport& report);

  // Retires a still-warm worker at `end`, accounting its occupancy up to that
  // instant. No-op when the slot is empty.
  void RetireWorker(TimePoint end, SimulationReport& report);

  // When this slot's worker frees up (busy-until, including any blocking
  // checkpoint downtime). Dispatchers pick the slot with the earliest value.
  TimePoint free_at() const { return free_at_; }
  // When this slot's closed-loop client issues its next request: the last
  // response's arrival at the client, which excludes checkpoint downtime —
  // a blocking checkpoint then shows up as queueing on the next request.
  TimePoint dispatch_at() const { return last_completion_; }
  TimePoint last_completion() const { return last_completion_; }

  bool exploring() const { return exploring_; }
  Orchestrator& orchestrator() { return *orchestrator_; }
  const Orchestrator& orchestrator() const { return *orchestrator_; }

  // Routes all worker-lifecycle operations through `backend` (borrowed; must
  // outlive the core) instead of the default in-process backend — this is how
  // service mode turns the core into an OrchestratorService client. Must be
  // called while no session is live.
  void set_backend(WorkerBackend* backend) { backend_ = backend; }

  // Borrowed observability sink; null disables all emission. Serve spans land
  // on `serve_track`, provision/checkpoint/evict spans (and the
  // orchestrator's decision and retry events) on `lifecycle_track`.
  void set_obs(ObsSink* obs, ObsTrack serve_track, ObsTrack lifecycle_track);

 private:
  std::unique_ptr<Orchestrator> orchestrator_;
  // Default backend: direct in-process Orchestrator calls. Heap-allocated so
  // `backend_` stays valid across SimCore moves.
  std::unique_ptr<LocalWorkerBackend> local_backend_;
  WorkerBackend* backend_;
  const EvictionModel* eviction_;
  SimClock* clock_;
  LifecycleOptions lifecycle_;
  bool exploring_;

  // Emits the evict/retire span for the current worker (ends its lifetime on
  // the trace) plus the occupancy metrics.
  void ObserveWorkerEnd(const char* name, TimePoint begin, TimePoint end);

  // Ends the live session through the backend and folds its occupancy
  // [worker_started_at_, end) into `report`.
  void AccountWorkerEnd(TimePoint end, SimulationReport& report);

  // Client-visible view of the live session; the session itself lives behind
  // backend_ (in-process or service-side).
  std::optional<SessionView> view_;
  uint64_t requests_in_lifetime_ = 0;
  TimePoint worker_started_at_;
  TimePoint free_at_;
  TimePoint last_completion_;

  ObsSink* obs_ = nullptr;
  ObsTrack serve_track_;
  ObsTrack lifecycle_track_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIM_CORE_H_
