#include "src/core/stop_condition_policy.h"

#include <algorithm>
#include <numeric>

namespace pronghorn {

StartDecision StopConditionPolicy::OnWorkerStart(const PolicyState& state,
                                                 Rng& rng) const {
  if (!frozen()) {
    return inner_.OnWorkerStart(state, rng);
  }
  // Frozen: deterministically exploit the best-known snapshot, never plan a
  // checkpoint. "Best" is the lowest learned lifetime latency, i.e. the
  // highest average inverse lifetime weight — ties broken by recency.
  StartDecision decision;
  const PolicyConfig& config = inner_.config();
  const auto entries = state.pool.entries();
  if (entries.empty()) {
    return decision;
  }
  // Rank the full pool by learned lifetime weight (descending), ties broken
  // by recency, so restore failures fall back to the second-best snapshot
  // rather than straight to a cold start. The top kMaxRestoreCandidates
  // become the decision's candidates.
  std::vector<double> weights;
  weights.reserve(entries.size());
  for (const PoolEntry& entry : entries) {
    weights.push_back(state.theta.LifetimeWeight(entry.metadata.request_number,
                                                 config.beta, config.mu));
  }
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) {
      return weights[a] > weights[b];
    }
    return entries[a].metadata.id.value > entries[b].metadata.id.value;
  });
  decision.restore_candidate_count = std::min(order.size(), kMaxRestoreCandidates);
  for (size_t rank = 0; rank < decision.restore_candidate_count; ++rank) {
    decision.restore_candidates[rank] = entries[order[rank]].metadata.id;
  }
  decision.restore_from = decision.restore_candidates.front();
  return decision;
}

void StopConditionPolicy::OnRequestComplete(PolicyState& state, uint64_t request_number,
                                            Duration latency) const {
  requests_seen_.fetch_add(1, std::memory_order_relaxed);
  // Knowledge keeps flowing either way; it is cheap and keeps the frozen
  // best-snapshot choice honest if the provider later resumes exploration.
  inner_.OnRequestComplete(state, request_number, latency);
}

std::vector<PoolEntry> StopConditionPolicy::OnSnapshotAdded(PolicyState& state,
                                                            Rng& rng) const {
  return inner_.OnSnapshotAdded(state, rng);
}

}  // namespace pronghorn
