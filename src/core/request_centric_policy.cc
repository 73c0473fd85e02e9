#include "src/core/request_centric_policy.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/mathutil.h"

namespace pronghorn {

namespace {

// Per-thread decision scratch, kept as parallel (SoA) arrays so the scoring
// scans run over contiguous doubles. One policy instance is shared across
// every shard thread (it holds no per-call state), and each decision runs on
// exactly one thread, so thread-local vectors give every decision private
// scratch without locks. They keep their capacity between decisions: once
// the first decision has sized them, the steady state performs zero heap
// allocations (tests/alloc_hook_test.cc).
struct DecisionScratch {
  std::vector<double> weights;
  std::vector<double> probabilities;
  std::vector<uint64_t> ids;
  std::vector<size_t> order;
};

DecisionScratch& ThreadScratch() {
  thread_local DecisionScratch scratch;
  return scratch;
}

}  // namespace

Result<RequestCentricPolicy> RequestCentricPolicy::Create(const PolicyConfig& config) {
  PRONGHORN_RETURN_IF_ERROR(config.Validate());
  return RequestCentricPolicy(config);
}

std::vector<double> RequestCentricPolicy::SnapshotWeights(const PolicyState& state) const {
  // GetSnapshotWeights (Algorithm 1, lines 11-18): w[i] is the average
  // inverse learned latency over the lifetime that would follow a restore
  // from snapshot i.
  std::vector<double> weights;
  weights.reserve(state.pool.size());
  for (const PoolEntry& entry : state.pool.entries()) {
    weights.push_back(state.theta.LifetimeWeight(entry.metadata.request_number,
                                                 config_.beta, config_.mu));
  }
  return weights;
}

std::optional<uint64_t> RequestCentricPolicy::DrawCheckpointRequest(
    const PolicyState& state, uint64_t start, Rng& rng) const {
  // OnContainerStart (Algorithm 1, lines 4-10). The paper draws from
  // [R, R+beta]; we draw from (R, min(R+beta, W)]: checkpointing at R itself
  // would duplicate the snapshot we just restored (no new JIT progress), and
  // W bounds the request numbers at which checkpointing is permitted
  // (Table 2).
  const uint64_t lo = start + 1;
  const uint64_t hi =
      std::min<uint64_t>(start + config_.beta, config_.max_checkpoint_request);
  if (lo > hi) {
    return std::nullopt;
  }
  const std::span<const double> weights =
      state.theta.InverseWeightsSpan(lo, hi, config_.mu);
  if (weights.empty()) {
    return std::nullopt;
  }
  const size_t index = rng.WeightedIndex(weights);
  return lo + index;
}

StartDecision RequestCentricPolicy::OnWorkerStart(const PolicyState& state,
                                                  Rng& rng) const {
  StartDecision decision;
  uint64_t start_request = 0;
  if (!state.pool.empty()) {
    // OnContainerInit (lines 19-23): softmax over snapshot weights, then a
    // weighted draw. Low-lifetime-latency snapshots dominate, but every
    // snapshot keeps nonzero probability. The single draw is the paper's
    // restore choice; the remaining entries are ranked by probability
    // (descending, ties by recency) to give the orchestrator a deterministic
    // fallback order when a restore attempt fails (missing or corrupt
    // image); the top kMaxRestoreCandidates become the decision's
    // candidates. Ranking consumes no randomness, so fault-free trajectories
    // are identical to a policy without fallback candidates.
    DecisionScratch& scratch = ThreadScratch();
    const auto entries = state.pool.entries();
    const size_t count = entries.size();
    std::vector<double>& weights = scratch.weights;
    weights.resize(count);
    for (size_t i = 0; i < count; ++i) {
      weights[i] = state.theta.LifetimeWeight(entries[i].metadata.request_number,
                                              config_.beta, config_.mu);
    }
    std::vector<double>& probabilities = scratch.probabilities;
    probabilities.resize(count);
    SoftmaxInto(weights, config_.softmax_temperature, probabilities);
    const size_t first_index = rng.WeightedIndex(probabilities);
    std::vector<uint64_t>& ids = scratch.ids;
    ids.resize(count);
    for (size_t i = 0; i < count; ++i) {
      ids[i] = entries[i].metadata.id.value;
    }
    std::vector<size_t>& order = scratch.order;
    order.resize(count);
    std::iota(order.begin(), order.end(), size_t{0});
    // The drawn snapshot always ranks first; the rest sort by probability
    // (descending, ties by recency). Swapping it to the front and sorting
    // only the tail yields the same order as the old comparator that
    // special-cased first_index — (probability, id) is a strict total order
    // because pool ids are unique — without the per-element branch.
    std::swap(order[0], order[first_index]);
    std::sort(order.begin() + 1, order.end(), [&](size_t a, size_t b) {
      if (probabilities[a] != probabilities[b]) {
        return probabilities[a] > probabilities[b];
      }
      return ids[a] > ids[b];
    });
    decision.restore_candidate_count = std::min(count, kMaxRestoreCandidates);
    for (size_t rank = 0; rank < decision.restore_candidate_count; ++rank) {
      decision.restore_candidates[rank] = entries[order[rank]].metadata.id;
    }
    const PoolEntry& chosen = entries[first_index];
    decision.restore_from = chosen.metadata.id;
    start_request = chosen.metadata.request_number;
  }
  decision.checkpoint_at_request = DrawCheckpointRequest(state, start_request, rng);
  return decision;
}

void RequestCentricPolicy::OnRequestComplete(PolicyState& state, uint64_t request_number,
                                             Duration latency) const {
  // OnRequest (lines 24-30): first observation initializes, later ones blend
  // with proportion alpha (handled inside WeightVector::Update).
  state.theta.Update(request_number, latency.ToSeconds(), config_.alpha);
}

std::vector<PoolEntry> RequestCentricPolicy::OnSnapshotAdded(PolicyState& state,
                                                             Rng& rng) const {
  // OnCapacityReached (lines 31-36).
  if (state.pool.size() <= config_.pool_capacity) {
    return {};
  }
  const std::vector<double> weights = SnapshotWeights(state);
  return state.pool.Prune(weights, config_.retain_top_percent,
                          config_.retain_random_percent, rng);
}

}  // namespace pronghorn
