#include "src/core/baseline_policies.h"

namespace pronghorn {

// --- ColdStartPolicy ---------------------------------------------------------

StartDecision ColdStartPolicy::OnWorkerStart(const PolicyState& state, Rng& rng) const {
  (void)state;
  (void)rng;
  return StartDecision{};  // Always cold, never checkpoint.
}

void ColdStartPolicy::OnRequestComplete(PolicyState& state, uint64_t request_number,
                                        Duration latency) const {
  (void)state;
  (void)request_number;
  (void)latency;
}

std::vector<PoolEntry> ColdStartPolicy::OnSnapshotAdded(PolicyState& state,
                                                        Rng& rng) const {
  (void)state;
  (void)rng;
  return {};
}

// --- CheckpointAfterFirstPolicy ----------------------------------------------

StartDecision CheckpointAfterFirstPolicy::OnWorkerStart(const PolicyState& state,
                                                        Rng& rng) const {
  (void)rng;
  StartDecision decision;
  if (state.pool.empty()) {
    // First worker ever: run cold and snapshot right after request #1.
    decision.checkpoint_at_request = 1;
  } else {
    // Always resume from the one-and-only snapshot.
    decision.restore_from = state.pool.entries().front().metadata.id;
    decision.restore_candidates[0] = *decision.restore_from;
    decision.restore_candidate_count = 1;
  }
  return decision;
}

void CheckpointAfterFirstPolicy::OnRequestComplete(PolicyState& state,
                                                   uint64_t request_number,
                                                   Duration latency) const {
  // The baseline still records latencies (the platform uses the same update
  // path), but its decisions never read them.
  state.theta.Update(request_number, latency.ToSeconds(), config_.alpha);
}

std::vector<PoolEntry> CheckpointAfterFirstPolicy::OnSnapshotAdded(PolicyState& state,
                                                                   Rng& rng) const {
  (void)state;
  (void)rng;
  return {};  // Exactly one snapshot is ever taken; no eviction needed.
}

}  // namespace pronghorn
