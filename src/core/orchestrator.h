// Per-worker Orchestrator (paper Figure 2, workflow §3.2).
//
// The Orchestrator mediates between the serverless platform and the policy:
// on worker launch it consults the Database-backed policy state, restores
// from the chosen snapshot (or cold-starts), and fixes the lifetime's
// checkpoint plan; on every request it records latency knowledge; when the
// plan fires it checkpoints the process, uploads the image to the Object
// Store, and records metadata in the Database, evicting pool overflow.
//
// Failure recovery (the control plane is distributed, so every hop can
// fail): transient object-store reads retry with exponential backoff in
// simulated time; a failed restore falls back to the policy's next-best
// candidate before cold-starting; snapshots that repeatedly fail to
// decode/restore are quarantined (evicted + blob deleted); when the
// Database is down at launch the worker degrades to a local cold start and
// buffers latency observations for replay once the Database recovers.

#ifndef PRONGHORN_SRC_CORE_ORCHESTRATOR_H_
#define PRONGHORN_SRC_CORE_ORCHESTRATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/checkpoint/engine.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/policy.h"
#include "src/core/policy_state_store.h"
#include "src/obs/sink.h"
#include "src/store/snapshot_store.h"

namespace pronghorn {

// Cost model for the orchestrator's own bookkeeping (Figure 7 accounting).
// These costs are tracked off the critical path of request processing, as in
// the paper ("they all occur off the critical path ... not directly observed
// by the user").
struct OrchestratorCostModel {
  // One Database round trip.
  Duration db_read_latency = Duration::Millis(3);
  Duration db_write_latency = Duration::Millis(4);
  // Fixed policy-decision CPU cost at worker startup...
  Duration decision_base_cost = Duration::Millis(8);
  // ...plus a per-pool-entry term (weight computation + softmax at startup,
  // pool re-scoring at checkpoint). Calibrated so a full C=12 pool lands in
  // the paper's Figure 7 envelope (startup < 2.5x baseline, checkpoint < 2x).
  Duration decision_per_snapshot_cost = Duration::Millis(1);
  // Object store transfer bandwidth for snapshot images.
  double object_store_mb_per_sec = 1000.0;
};

// Bounds of the orchestrator's failure-recovery machinery.
struct RecoveryOptions {
  // Transient (kUnavailable) object-store ops are retried this many times
  // per attempt, with exponential backoff in simulated time.
  int max_transient_retries = 3;
  Duration backoff_base = Duration::Millis(5);
  double backoff_multiplier = 2.0;
  Duration backoff_cap = Duration::Millis(200);
  // A snapshot whose image fails to decode/restore this many times is
  // quarantined: evicted from the pool, its failure ledger cleared, and its
  // blob deleted from the object store.
  uint32_t quarantine_threshold = 3;
  // Latency observations held locally while the Database is unavailable;
  // the oldest is dropped when the buffer is full.
  size_t max_buffered_observations = 1024;
};

// Counters for everything the recovery machinery did (report material).
struct RecoveryStats {
  uint64_t restore_transient_retries = 0;  // Backed-off object-store retries.
  uint64_t restore_attempt_failures = 0;   // Candidate attempts that failed.
  uint64_t restore_fallbacks = 0;          // Restores that used a non-first candidate.
  uint64_t snapshots_quarantined = 0;
  uint64_t stale_entries_pruned = 0;  // Pool entries whose object had vanished.
  uint64_t degraded_starts = 0;       // Database down at launch -> local cold start.
  uint64_t observations_buffered = 0;
  uint64_t observations_replayed = 0;
  uint64_t observations_dropped = 0;
  uint64_t checkpoints_skipped = 0;          // Checkpoint plans consumed by faults.
  uint64_t eviction_deletes_deferred = 0;    // Delete failed -> orphan until GC.
  uint64_t orphans_collected = 0;
  Duration total_retry_backoff;
};

// A live worker: the restored (or cold-started) process plus this lifetime's
// orchestration plan.
struct WorkerSession {
  WorkerSession(RuntimeProcess p, uint64_t id) : process(std::move(p)), worker_id(id) {}

  RuntimeProcess process;
  uint64_t worker_id = 0;
  // Absolute request number at which to checkpoint; nullopt = never.
  std::optional<uint64_t> checkpoint_at;
  bool restored = false;
  SnapshotId restored_from;  // value 0 when cold.
  // Launched while the Database was unreachable: cold start under the local
  // degraded policy, no checkpoint plan, observations buffered for replay.
  bool degraded = false;
  // Time to make the worker ready: cold init, or image download + restore.
  Duration startup_latency;
  // Orchestrator bookkeeping at startup (DB read + decision).
  Duration startup_overhead;
};

// What happened while serving one request.
struct RequestOutcome {
  // End-to-end execution latency of the function (the quantity the paper's
  // CDFs plot; worker startup is off the critical path, see platform docs).
  Duration latency;
  // Maturity index of the request just served (1 = first request ever).
  uint64_t request_number = 0;
  bool checkpoint_taken = false;
  // Worker downtime caused by the checkpoint (not user-visible).
  Duration checkpoint_downtime;
  // Orchestrator bookkeeping for this request (knowledge write).
  Duration request_overhead;
  // Bookkeeping for the checkpoint, when one was taken (uploads, metadata).
  Duration checkpoint_overhead;
};

// Cumulative per-operation overhead totals (Figure 7 rows).
struct OrchestratorOverheads {
  uint64_t worker_starts = 0;
  uint64_t requests_served = 0;
  uint64_t checkpoints_taken = 0;
  Duration total_startup_overhead;
  Duration total_request_overhead;
  Duration total_checkpoint_overhead;
};

class Orchestrator {
 public:
  // All dependencies are borrowed and must outlive the Orchestrator. `seed`
  // drives policy randomness and process seeds.
  Orchestrator(const WorkloadProfile& profile, const WorkloadRegistry& registry,
               const OrchestrationPolicy& policy, CheckpointEngine& engine,
               SnapshotStore& snapshot_store, PolicyStateStore& state_store,
               SimClock& clock, uint64_t seed,
               OrchestratorCostModel costs = OrchestratorCostModel{},
               RecoveryOptions recovery = RecoveryOptions{});

  // Launches a new worker according to the policy (workflow steps: query
  // Database, select snapshot, restore or cold start, plan checkpoint).
  // Failed restore attempts walk the policy's ranked candidates before
  // falling back to a cold start; a Database outage yields a degraded cold
  // session rather than an error.
  Result<WorkerSession> StartWorker();

  // Serves one request: executes it, updates latency knowledge in the
  // Database (steps 2-4), and checkpoints if this lifetime's plan fires
  // (steps 5-8). Knowledge writes that hit a Database outage are buffered
  // and replayed with a later request; checkpoint plans that hit faults are
  // consumed and counted, not surfaced as errors.
  Result<RequestOutcome> ServeRequest(WorkerSession& session,
                                      const FunctionRequest& request);

  // One observation handed back by the service's write-ahead journal during
  // crash recovery. `sequence` is the slot's monotonic journal sequence
  // (1-based); it keys the exactly-once dedup against the policy-state
  // blob's commit high-water mark.
  struct JournaledObservation {
    uint64_t sequence = 0;
    uint64_t request_number = 0;
    Duration latency;
  };

  // The three phases of ServeRequest, exposed separately so the service front
  // end (src/service) can group-commit knowledge writes: ServeRequest is
  // exactly ExecuteBuffered + CommitObservations + MaybeCheckpoint.
  //
  // Executes the request and appends its latency observation to the local
  // buffer (dropping the oldest past max_buffered_observations) without
  // touching the Database. A nonzero `sequence` tags the observation with the
  // service's journal sequence number, enabling exactly-once dedup at commit;
  // 0 (the default, and the only value sim-mode paths ever pass) means
  // unsequenced — committed unconditionally, bit-identical to the pre-journal
  // behavior.
  RequestOutcome ExecuteBuffered(WorkerSession& session, const FunctionRequest& request,
                                 uint64_t sequence = 0);
  // Commits every buffered observation in one Database write (steps 2-4). A
  // write that hits an outage leaves the buffer intact for a later attempt
  // (kUnavailable is absorbed, not returned); only hard faults surface. No-op
  // when nothing is buffered. Sequenced observations at or below the commit
  // scope's high-water mark are duplicates from a journal replay: they are
  // skipped, and the mark advances in the same CAS as the writes it covers.
  Status CommitObservations(RequestOutcome& outcome);

  // Rebuffers journal records recovered after a crash (oldest first) and
  // commits them through the deduping path above. Safe to call with records
  // that were already committed — the high-water mark filters them. When the
  // Database is unavailable the records stay buffered for a later flush and
  // the call still succeeds, mirroring CommitObservations.
  Status ReplayJournaled(std::span<const JournaledObservation> records);

  // Simulates the memory loss of a shard crash: discards every buffered
  // observation. The write-ahead journal is the only copy afterwards.
  void DropPendingObservations() { pending_observations_.clear(); }

  // The slot index this orchestrator commits under; keys the per-slot commit
  // high-water mark in the policy-state blob. Set once at service bind time.
  void set_commit_scope(uint32_t scope) { commit_scope_ = scope; }

  // Sequenced observations skipped as journal-replay duplicates (cumulative).
  // Service-level accounting only; never serialized into report digests.
  uint64_t observations_deduped() const { return observations_deduped_; }

  // Reads the commit scope's high-water mark from the Database (0 when the
  // scope has never committed a sequenced observation). The floor for
  // sequence assignment after a restart whose journal was already truncated.
  Result<uint64_t> CommittedHighWater() const;
  // Checkpoints when this lifetime's plan has fired (steps 5-8); plans
  // consumed by transient faults are counted, not surfaced.
  Status MaybeCheckpoint(WorkerSession& session, RequestOutcome& outcome);

  // Observations executed but not yet committed (outage-buffered or held for
  // a service-side group commit).
  size_t pending_observation_count() const { return pending_observations_.size(); }

  // Garbage-collects object-store blobs under this deployment's snapshot
  // prefix that no pool entry references (left by torn writes, failed
  // metadata commits, or deferred eviction deletes). Returns how many blobs
  // were deleted.
  Result<uint64_t> CollectOrphanedObjects();

  const OrchestratorOverheads& overheads() const { return overheads_; }
  const RecoveryStats& recovery_stats() const { return recovery_; }
  const WorkloadProfile& profile() const { return profile_; }

  // Borrowed observability sink; null disables all emission. Decision and
  // retry/backoff events land on `track` (the owning slot's lifecycle lane).
  void set_obs(ObsSink* obs, ObsTrack track) {
    obs_ = obs;
    obs_track_ = track;
  }

 private:
  // A snapshot's stored bytes that passed SnapshotImage::Decode and then
  // restored, plus that decoded image (which also remembers its decoded
  // process, see SnapshotImage::DecodeProcess).
  struct VerifiedImage {
    std::shared_ptr<const std::vector<uint8_t>> bytes;
    SnapshotImage image;
  };

  struct PendingObservation {
    uint64_t request_number = 0;
    Duration latency;
    // Journal sequence, 0 when unsequenced (sim mode, degraded-start buffer).
    uint64_t sequence = 0;
  };

  // Takes a snapshot of the session's process, uploads it, and records it in
  // the policy state; returns the worker downtime.
  Result<Duration> TakeCheckpoint(WorkerSession& session, RequestOutcome& outcome);

  // Snapshot-store ops with bounded retry + backoff for transient failures.
  // Fetch opens the snapshot and materializes it through the store's (eager
  // or lazy) reader; the result is byte-identical either way.
  Result<ObjectBlob> FetchWithRetry(const std::string& key);
  Status PutWithRetry(const std::string& key, ObjectBlob blob);

  // Advances simulated time for the nth backoff of one operation.
  void Backoff(int retry_index);

  // Records one decode/restore failure for `id` in the shared ledger and
  // quarantines the snapshot at the threshold (best-effort; Database faults
  // only defer the bookkeeping).
  void RecordRestoreFailure(SnapshotId id, const std::string& object_key);

  // Drops a pool entry whose object has vanished (concurrent eviction).
  void PruneStaleEntry(SnapshotId id);

  Duration TransferTime(uint64_t logical_bytes) const;

  const WorkloadProfile& profile_;
  const WorkloadRegistry& registry_;
  const OrchestrationPolicy& policy_;
  CheckpointEngine& engine_;
  SnapshotStore& snapshot_store_;
  PolicyStateStore& state_store_;
  SimClock& clock_;
  Rng rng_;
  OrchestratorCostModel costs_;
  RecoveryOptions recovery_options_;
  OrchestratorOverheads overheads_;
  RecoveryStats recovery_;
  std::deque<PendingObservation> pending_observations_;
  // Verified-snapshot memo, keyed by snapshot id. A fetched buffer that is
  // the memo's own object or byte-equal to it reuses the decoded image, so
  // the CRC and the parse run once per distinct byte sequence. An entry
  // survives only if its full decode and restore both succeeded, and the
  // memo is trimmed to the loaded pool after every restore walk.
  std::map<uint64_t, VerifiedImage> verified_images_;
  uint32_t commit_scope_ = 0;
  uint64_t observations_deduped_ = 0;
  uint64_t next_worker_id_ = 1;
  ObsSink* obs_ = nullptr;
  ObsTrack obs_track_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_ORCHESTRATOR_H_
