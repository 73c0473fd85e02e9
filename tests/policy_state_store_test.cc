#include "src/core/policy_state_store.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/request_centric_policy.h"
#include "src/store/fault_injection.h"

namespace pronghorn {
namespace {

PolicyConfig TestConfig() {
  PolicyConfig config;
  config.beta = 5;
  config.max_checkpoint_request = 20;
  return config;
}

PoolEntry Entry(uint64_t id, uint64_t request_number) {
  PoolEntry entry;
  entry.metadata.id = SnapshotId{id};
  entry.metadata.function = "f";
  entry.metadata.request_number = request_number;
  entry.object_key = "snapshots/f/" + std::to_string(id);
  return entry;
}

using KeyValues = std::vector<std::pair<uint64_t, uint64_t>>;

// Hand-assembles a format-3 blob with an empty pool, so the decoder can be
// fed layouts the encoder never writes.
std::vector<uint8_t> RawBlob(const std::vector<double>& theta, const KeyValues& ledger,
                             const KeyValues& marks) {
  ByteWriter writer;
  writer.WriteUint32(3);
  writer.WriteVarint(theta.size());
  writer.WriteDoubles(theta);
  writer.WriteVarint(0);  // Empty pool.
  for (const KeyValues* map : {&ledger, &marks}) {
    writer.WriteVarint(map->size());
    for (const auto& [key, value] : *map) {
      writer.WriteVarint(key);
      writer.WriteVarint(value);
    }
  }
  return writer.TakeData();
}

StatusCode DecodeCode(const std::vector<uint8_t>& blob) {
  return DecodePolicyState(blob).status().code();
}

constexpr uint64_t kUint32Max = std::numeric_limits<uint32_t>::max();

TEST(PolicyStateCodecTest, HandAssembledBlobRoundTripsByteIdentically) {
  // The reference for the rejection cases below: the same layout with
  // in-range, strictly ascending keys decodes and re-encodes to itself.
  const auto blob = RawBlob({0.0, 0.5, 1.25}, {{1, 2}, {7, kUint32Max}},
                            {{0, 9}, {kUint32Max, 3}});
  auto decoded = DecodePolicyState(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodePolicyState(*decoded), blob);
}

TEST(PolicyStateCodecTest, RejectsLedgerCountAboveUint32) {
  EXPECT_EQ(DecodeCode(RawBlob({0.0}, {{1, kUint32Max + 1}}, {})),
            StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RejectsCommitScopeAboveUint32) {
  EXPECT_EQ(DecodeCode(RawBlob({0.0}, {}, {{kUint32Max + 1, 4}})), StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RejectsDuplicateOrDescendingLedgerKeys) {
  EXPECT_EQ(DecodeCode(RawBlob({0.0}, {{5, 1}, {5, 2}}, {})), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeCode(RawBlob({0.0}, {{5, 1}, {3, 1}}, {})), StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RejectsDuplicateOrDescendingCommitScopes) {
  EXPECT_EQ(DecodeCode(RawBlob({0.0}, {}, {{2, 1}, {2, 8}})), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeCode(RawBlob({0.0}, {}, {{2, 1}, {1, 8}})), StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RejectsNonFiniteTheta) {
  EXPECT_EQ(DecodeCode(RawBlob({0.1, std::nan(""), 0.2}, {}, {})), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeCode(RawBlob({std::numeric_limits<double>::infinity()}, {}, {})),
            StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RoundTrip) {
  PolicyState state(TestConfig());
  state.theta.Update(3, 0.05, 0.3);
  ASSERT_TRUE(state.pool.Add(Entry(1, 3)).ok());

  const auto encoded = EncodePolicyState(state);
  auto decoded = DecodePolicyState(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, state);
}

TEST(PolicyStateCodecTest, RejectsBadVersion) {
  PolicyState state(TestConfig());
  auto encoded = EncodePolicyState(state);
  encoded[0] = 0xfe;  // Clobber the format version.
  EXPECT_EQ(DecodePolicyState(encoded).status().code(), StatusCode::kDataLoss);
}

TEST(PolicyStateCodecTest, RejectsTrailingBytes) {
  PolicyState state(TestConfig());
  auto encoded = EncodePolicyState(state);
  encoded.push_back(0x00);
  EXPECT_FALSE(DecodePolicyState(encoded).ok());
}

TEST(PolicyStateStoreTest, LoadFreshStateWhenAbsent) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->theta.length(), TestConfig().WeightVectorLength());
  EXPECT_TRUE(state->pool.empty());
}

TEST(PolicyStateStoreTest, UpdatePersistsMutation) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  ASSERT_TRUE(store
                  .Update([](PolicyState& state) {
                    state.theta.Update(2, 0.5, 0.3);
                  })
                  .ok());
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->theta.At(2), 0.5);
}

TEST(PolicyStateStoreTest, UpdatesAccumulate) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .Update([i](PolicyState& state) {
                      state.theta.Update(static_cast<uint64_t>(i), 0.1, 0.3);
                    })
                    .ok());
  }
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->theta.ExploredCount(), 10u);
}

TEST(PolicyStateStoreTest, FunctionsAreIsolated) {
  InMemoryKvDatabase db;
  PolicyStateStore store_a(db, "fn-a", TestConfig());
  PolicyStateStore store_b(db, "fn-b", TestConfig());
  ASSERT_TRUE(
      store_a.Update([](PolicyState& state) { state.theta.Update(1, 0.7, 0.3); }).ok());
  auto state_b = store_b.Load();
  ASSERT_TRUE(state_b.ok());
  EXPECT_EQ(state_b->theta.ExploredCount(), 0u);
}

TEST(PolicyStateStoreTest, CasRetryHandlesConcurrentWriter) {
  // Two stores over one database: each applies many increments to disjoint
  // theta entries; interleaved CAS retries must not lose updates.
  InMemoryKvDatabase db;
  PolicyStateStore store_a(db, "fn", TestConfig());
  PolicyStateStore store_b(db, "fn", TestConfig());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        store_a.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 1.0); })
            .ok());
    ASSERT_TRUE(
        store_b.Update([](PolicyState& state) { state.theta.Update(2, 0.2, 1.0); })
            .ok());
  }
  auto state = store_a.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->theta.At(1), 0.1);
  EXPECT_DOUBLE_EQ(state->theta.At(2), 0.2);
}

TEST(PolicyStateStoreTest, MutatorRerunsAgainstFreshStateOnConflict) {
  // Simulate a conflicting write landing between a reader's Load and CAS by
  // mutating through a second store inside the first mutation's first run.
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  PolicyStateStore rival(db, "fn", TestConfig());
  int runs = 0;
  ASSERT_TRUE(store
                  .Update([&](PolicyState& state) {
                    ++runs;
                    if (runs == 1) {
                      // Interleave a rival write -> our CAS must conflict.
                      ASSERT_TRUE(rival
                                      .Update([](PolicyState& s) {
                                        s.theta.Update(5, 0.9, 1.0);
                                      })
                                      .ok());
                    }
                    state.theta.Update(6, 0.4, 1.0);
                  })
                  .ok());
  EXPECT_EQ(runs, 2);  // First run conflicted, second committed.
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state->theta.At(5), 0.9);  // Rival update survived.
  EXPECT_DOUBLE_EQ(state->theta.At(6), 0.4);
  EXPECT_GE(db.accounting().cas_conflicts, 1u);
}

TEST(PolicyStateStoreTest, SnapshotIdsAreUniqueAndMonotonic) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  uint64_t previous = 0;
  for (int i = 0; i < 25; ++i) {
    auto id = store.AllocateSnapshotId();
    ASSERT_TRUE(id.ok());
    EXPECT_GT(id->value, previous);
    previous = id->value;
  }
}

TEST(PolicyStateStoreTest, IdSequencesArePerFunction) {
  InMemoryKvDatabase db;
  PolicyStateStore store_a(db, "fn-a", TestConfig());
  PolicyStateStore store_b(db, "fn-b", TestConfig());
  EXPECT_EQ(store_a.AllocateSnapshotId()->value, 1u);
  EXPECT_EQ(store_a.AllocateSnapshotId()->value, 2u);
  EXPECT_EQ(store_b.AllocateSnapshotId()->value, 1u);
}

TEST(PolicyStateStoreTest, CorruptBlobSurfacesDataLoss) {
  InMemoryKvDatabase db;
  ASSERT_TRUE(db.Put("policy/fn/state", {0x01, 0x02}).ok());
  PolicyStateStore store(db, "fn", TestConfig());
  EXPECT_FALSE(store.Load().ok());
}

TEST(PolicyStateCodecTest, RoundTripsRestoreFailureLedger) {
  // v2 of the blob format appends the restore-failure strike ledger.
  PolicyState state(TestConfig());
  state.theta.Update(3, 0.05, 0.3);
  ASSERT_TRUE(state.pool.Add(Entry(1, 3)).ok());
  state.restore_failures[1] = 2;
  state.restore_failures[9] = 1;

  const auto encoded = EncodePolicyState(state);
  auto decoded = DecodePolicyState(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, state);
  EXPECT_EQ(decoded->restore_failures.size(), 2u);
  EXPECT_EQ(decoded->restore_failures.at(1), 2u);
  EXPECT_EQ(decoded->restore_failures.at(9), 1u);
}

TEST(PolicyStateStoreTest, StatsCountLoadsUpdatesAndCasAttempts) {
  InMemoryKvDatabase db;
  PolicyStateStore store(db, "fn", TestConfig());
  ASSERT_TRUE(store.Load().ok());
  ASSERT_TRUE(
      store.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 0.3); }).ok());
  const StateStoreStats& stats = store.stats();
  // Update reads the versioned blob directly; only Load() counts as a load.
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.cas_attempts, 1u);
  EXPECT_EQ(stats.cas_conflicts, 0u);
  EXPECT_EQ(stats.transient_retries, 0u);
}

TEST(PolicyStateStoreTest, TransientFailuresRetryWithBackoffInSimulatedTime) {
  // A database-domain outage that ends mid-retry: the first attempts fail,
  // backoff advances the simulated clock past the window's end, and the
  // operation then succeeds without surfacing an error.
  SimClock clock;
  InMemoryKvDatabase inner;
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Millis(5);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner, plan, &clock);

  PolicyStateStore store(db, "fn", TestConfig(), &clock);
  ASSERT_TRUE(
      store.Update([](PolicyState& state) { state.theta.Update(1, 0.1, 0.3); }).ok());
  const StateStoreStats& stats = store.stats();
  EXPECT_GE(stats.transient_retries, 1u);
  EXPECT_GT(stats.total_backoff, Duration::Zero());
  EXPECT_EQ(clock.now(), TimePoint() + stats.total_backoff);
}

TEST(PolicyStateStoreTest, ExhaustedTransientRetriesSurfaceUnavailable) {
  // Under a permanent outage every retry burns out and the caller sees
  // kUnavailable (which the orchestrator turns into a degraded start).
  SimClock clock;
  InMemoryKvDatabase inner;
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(3600);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner, plan, &clock);

  StateStoreRetryPolicy retry;
  retry.max_transient_retries = 3;
  PolicyStateStore store(db, "fn", TestConfig(), &clock, retry);
  EXPECT_EQ(store.Load().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.stats().transient_retries, 3u);
  EXPECT_GT(clock.now(), TimePoint());  // Backoff happened in simulated time.
}

using Change = std::function<void(PolicyState&)>;

// One random state change of the kinds the orchestrator makes. Every choice
// is drawn here, outside the mutator, because Update re-runs the mutator on
// conflict and each run must make the same change.
Change RandomChange(Rng& rng, const RequestCentricPolicy& policy, const PolicyState& model,
                    uint64_t& next_id) {
  const uint64_t a = rng.NextUint64();
  const uint64_t b = rng.NextUint64();
  const uint64_t beyond_window = model.theta.length() + 8;
  switch (rng.UniformUint64(7)) {
    case 0:
    case 1:  // An observation, sometimes past the learning window.
      return [a, beyond_window](PolicyState& s) {
        s.theta.Update(a % beyond_window, 0.001 * static_cast<double>(1 + a % 97), 0.3);
      };
    case 2: {  // A checkpoint: add, then the capacity rule may prune.
      const uint64_t id = next_id++;
      return [&policy, id, a](PolicyState& s) {
        ASSERT_TRUE(s.pool.Add(Entry(id, a % 20)).ok());
        Rng prune_rng(a);
        policy.OnSnapshotAdded(s, prune_rng);
      };
    }
    case 3: {  // Quarantine of a pooled snapshot.
      if (model.pool.empty()) {
        return [](PolicyState&) {};
      }
      const SnapshotId id = model.pool.entries()[a % model.pool.size()].metadata.id;
      return [id](PolicyState& s) { s.pool.Remove(id); };
    }
    case 4:  // A restore-failure strike.
      return [a](PolicyState& s) { s.restore_failures[a % 6] += 1; };
    case 5:  // A later successful restore clears the strikes.
      return [a](PolicyState& s) { s.restore_failures.erase(a % 6); };
    default:  // A journaled group commit advances a slot's mark.
      return [a, b](PolicyState& s) {
        s.commit_marks[static_cast<uint32_t>(a % 3)] = b % 100000;
      };
  }
}

// Differential check of the store's memoized encode. A seeded mix of state
// changes runs through a store over a faulty database, with CAS conflicts and
// a second writer on the same key. `model` applies every committed change in
// commit order; after each Update the stored blob must be exactly the
// reference encoding of the model, and must decode and re-encode to itself.
void RunEncodeDifferential(bool enable_cache, uint64_t seed) {
  PolicyConfig config = TestConfig();
  config.pool_capacity = 4;
  auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());
  SimClock clock;
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 0.1;
  plan.put_failure_rate = 0.1;
  plan.seed = seed;
  FaultyKvDatabase db(inner, plan, &clock);
  PolicyStateStore store(db, "fn", config, &clock, StateStoreRetryPolicy{}, enable_cache);
  PolicyStateStore rival(inner, "fn", config, nullptr, StateStoreRetryPolicy{},
                         enable_cache);

  PolicyState model(config);
  Rng rng(seed);
  uint64_t next_id = 1;
  size_t largest_pool = 0;
  for (int step = 0; step < 800; ++step) {
    const Change change = RandomChange(rng, *policy, model, next_id);
    const uint64_t interleave = rng.UniformUint64(8);
    const Change rival_change = RandomChange(rng, *policy, model, next_id);
    const auto rival_writes = [&] {
      ASSERT_TRUE(rival.Update(rival_change).ok());
      rival_change(model);
    };
    if (interleave == 0) {
      rival_writes();  // The store's cached version is now stale: a miss.
    }
    int runs = 0;
    const Status status = store.Update([&](PolicyState& s) {
      if (interleave == 1 && runs++ == 0) {
        rival_writes();  // Lands between our read and our CAS: a conflict.
      }
      change(s);
    });
    if (status.ok()) {
      change(model);
    } else {
      ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    }
    largest_pool = std::max(largest_pool, model.pool.size());

    auto blob = inner.Get("policy/fn/state");
    if (!blob.ok()) {
      ASSERT_EQ(blob.status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_EQ(*blob, EncodePolicyState(model)) << "step " << step;
    auto decoded = DecodePolicyState(*blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(EncodePolicyState(*decoded), *blob) << "step " << step;
  }

  // The mix reached every path it is meant to cover; checkpoints outnumber
  // quarantines, so the pool fills up to the capacity rule.
  EXPECT_GE(largest_pool, config.pool_capacity - 1);
  EXPECT_GT(store.stats().cas_conflicts, 0u);
  EXPECT_GT(store.stats().transient_retries, 0u);
  if (enable_cache) {
    EXPECT_GT(store.cache_stats().hits, 0u);
    EXPECT_GT(store.cache_stats().misses, 0u);
  }
}

TEST(PolicyStateStoreTest, MemoizedEncodeMatchesReferenceEncoderWithCache) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    RunEncodeDifferential(/*enable_cache=*/true, seed);
  }
}

TEST(PolicyStateStoreTest, MemoizedEncodeMatchesReferenceEncoderWithoutCache) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    RunEncodeDifferential(/*enable_cache=*/false, seed);
  }
}

}  // namespace
}  // namespace pronghorn
