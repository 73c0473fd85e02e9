// Orchestration policy abstraction.
//
// The paper's Orchestrator "executes policies through a minimal abstract
// interface" (§4): a policy decides which snapshot a new worker restores
// from, when a running worker is checkpointed, how the learned state updates
// on every request, and which snapshots survive when the pool fills up.

#ifndef PRONGHORN_SRC_CORE_POLICY_H_
#define PRONGHORN_SRC_CORE_POLICY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/checkpoint/snapshot.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/policy_config.h"
#include "src/core/snapshot_pool.h"
#include "src/core/weight_vector.h"

namespace pronghorn {

// The global, per-function learned state shared by all workers through the
// Database: the weight vector theta and the snapshot pool P.
struct PolicyState {
  explicit PolicyState(const PolicyConfig& config)
      : theta(config.WeightVectorLength()) {}
  PolicyState(WeightVector theta_in, SnapshotPool pool_in)
      : theta(std::move(theta_in)), pool(std::move(pool_in)) {}

  WeightVector theta;
  SnapshotPool pool;
  // Restore-failure counts per snapshot id — the poisoned-snapshot ledger.
  // Incremented when a pooled snapshot fails to decode/restore, cleared on a
  // later success; a snapshot reaching the orchestrator's quarantine
  // threshold is evicted from the pool and its blob deleted.
  std::map<uint64_t, uint32_t> restore_failures;
  // Exactly-once ledger for journaled group commits: the highest journal
  // sequence number committed per commit scope (a service slot index). The
  // mark advances atomically with the knowledge writes it covers — in the
  // same CAS — so a crash-recovery replay of the write-ahead journal can
  // dedup records already applied (sequence <= mark) without double-counting
  // a single observation. Empty for functions never served in journaled mode.
  std::map<uint32_t, uint64_t> commit_marks;

  bool operator==(const PolicyState&) const = default;
};

// How many ranked pool candidates a worker start tries before cold-starting.
inline constexpr size_t kMaxRestoreCandidates = 3;

// Decisions made when a new worker launches (Algorithm 1, parts 1 and 2).
struct StartDecision {
  // The ranked fallback candidates in use, best first.
  std::span<const SnapshotId> candidates() const {
    return {restore_candidates.data(), restore_candidate_count};
  }

  // Snapshot to restore from; nullopt means cold start.
  std::optional<SnapshotId> restore_from;
  // The first `restore_candidate_count` entries are the policy's ranking,
  // best first; when non-empty the front entry equals restore_from. The
  // orchestrator walks them when a restore attempt fails (missing object,
  // corrupt image) before cold-starting.
  std::array<SnapshotId, kMaxRestoreCandidates> restore_candidates{};
  size_t restore_candidate_count = 0;
  // Absolute request number (JIT maturity) at which to checkpoint this
  // worker; nullopt means never.
  std::optional<uint64_t> checkpoint_at_request;
};

class OrchestrationPolicy {
 public:
  virtual ~OrchestrationPolicy() = default;

  virtual std::string_view name() const = 0;

  // The parameters this policy runs with. Baselines report defaults; the
  // platform uses this to size fresh weight vectors consistently.
  virtual const PolicyConfig& config() const = 0;

  // Called when the platform launches a new worker. `rng` provides the
  // policy's randomness (softmax draw, checkpoint-request draw).
  virtual StartDecision OnWorkerStart(const PolicyState& state, Rng& rng) const = 0;

  // Called after every request completes with the worker's absolute request
  // number (maturity index of the request just served) and its end-to-end
  // latency; updates the learned state (Algorithm 1, part 3).
  virtual void OnRequestComplete(PolicyState& state, uint64_t request_number,
                                 Duration latency) const = 0;

  // Called after a new snapshot enters the pool; returns the entries to
  // evict (and delete from the object store) if the capacity rule fires
  // (Algorithm 1, part 4).
  virtual std::vector<PoolEntry> OnSnapshotAdded(PolicyState& state,
                                                 Rng& rng) const = 0;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_CORE_POLICY_H_
