#include "src/store/fault_injection.h"
#include "src/store/snapshot_store.h"

#include <gtest/gtest.h>

#include "src/checkpoint/criu_like_engine.h"
#include "src/common/crc32.h"
#include "src/core/orchestrator.h"
#include "src/core/request_centric_policy.h"

namespace pronghorn {
namespace {

ObjectBlob Blob(std::string_view text) {
  return ObjectBlob(std::vector<uint8_t>(text.begin(), text.end()), text.size());
}

// The storage chaos chain of a flat simulation build: the fault decorator
// over a FlatSnapshotStore over an in-memory object store. `inner` is the
// raw store, for checking what actually landed.
struct FlatChain {
  explicit FlatChain(FaultPlan plan, SimClock* clock = nullptr)
      : flat(inner), store(flat, std::move(plan), clock) {}

  InMemoryObjectStore inner;
  FlatSnapshotStore flat;
  FaultySnapshotStore store;
};

Result<ObjectBlob> ReadBack(SnapshotStore& store, std::string_view key) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                             store.OpenSnapshot(key));
  return reader->ReadAll();
}

TEST(FaultySnapshotStoreTest, ZeroRateIsTransparent) {
  FlatChain chain{FaultPlan{}};
  ASSERT_TRUE(chain.store.PutSnapshot("k", Blob("v")).ok());
  ASSERT_TRUE(ReadBack(chain.store, "k").ok());
  ASSERT_TRUE(chain.store.DeleteSnapshot("k").ok());
  EXPECT_EQ(chain.store.faults_injected(), 0u);
}

TEST(FaultySnapshotStoreTest, InjectsAtConfiguredRate) {
  FaultPlan plan;
  plan.get_failure_rate = 0.5;
  plan.seed = 1;
  FlatChain chain(plan);
  ASSERT_TRUE(chain.inner.Put("k", Blob("v")).ok());
  int failures = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    auto got = chain.store.OpenSnapshot("k");
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / trials, 0.5, 0.05);
  EXPECT_EQ(chain.store.faults_injected(), static_cast<uint64_t>(failures));
}

TEST(FaultySnapshotStoreTest, AlwaysFailMode) {
  FaultPlan plan;
  plan.put_failure_rate = 1.0;
  FlatChain chain(plan);
  EXPECT_EQ(chain.store.PutSnapshot("k", Blob("v")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(chain.inner.Contains("k"));  // Nothing reached the inner store.
}

TEST(FaultySnapshotStoreTest, MetadataFaultsHideKeys) {
  FaultPlan plan;
  plan.metadata_failure_rate = 1.0;
  FlatChain chain(plan);
  ASSERT_TRUE(chain.inner.Put("snapshots/a", Blob("v")).ok());
  EXPECT_FALSE(chain.store.ContainsSnapshot("snapshots/a"));
  EXPECT_TRUE(chain.store.ListSnapshots("snapshots/").empty());
  EXPECT_EQ(chain.store.stats().metadata_faults, 2u);
  // The data path is untouched: the blob is still readable.
  EXPECT_TRUE(ReadBack(chain.store, "snapshots/a").ok());
}

TEST(FaultySnapshotStoreTest, TornWriteStoresTruncatedPrefixAndFails) {
  FaultPlan plan;
  plan.torn_write_rate = 1.0;
  FlatChain chain(plan);
  EXPECT_EQ(chain.store.PutSnapshot("k", Blob("0123456789")).status().code(),
            StatusCode::kUnavailable);
  // Half the payload landed anyway — the partial-upload garbage GC must clean.
  auto stored = chain.inner.Get("k");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->bytes().size(), 5u);
  EXPECT_EQ(chain.store.stats().torn_puts, 1u);
}

TEST(FaultySnapshotStoreTest, CorruptionFlipsOneBitAndReportsSuccess) {
  FaultPlan plan;
  plan.corruption_rate = 1.0;
  plan.seed = 3;
  FlatChain chain(plan);
  const ObjectBlob original = Blob("snapshot-image-payload");
  ASSERT_TRUE(chain.store.PutSnapshot("k", original).ok());  // The write "succeeds".
  auto stored = chain.inner.Get("k");
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->bytes().size(), original.bytes().size());
  size_t flipped_bits = 0;
  for (size_t i = 0; i < stored->bytes().size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(stored->bytes()[i] ^ original.bytes()[i]);
    while (diff != 0) {
      flipped_bits += diff & 1u;
      diff = static_cast<uint8_t>(diff >> 1);
    }
  }
  EXPECT_EQ(flipped_bits, 1u);
  EXPECT_EQ(chain.store.stats().corrupted_puts, 1u);
}

TEST(FaultySnapshotStoreTest, OutageWindowFailsEveryOpWhileOpen) {
  SimClock clock;
  FaultPlan plan;
  FaultWindow window;
  window.kind = FaultWindow::Kind::kOutage;
  window.domain = FaultDomain::kObjectStore;
  window.start = TimePoint() + Duration::Seconds(10);
  window.end = TimePoint() + Duration::Seconds(20);
  plan.windows.push_back(window);
  FlatChain chain(plan, &clock);
  ASSERT_TRUE(chain.inner.Put("k", Blob("v")).ok());

  EXPECT_TRUE(chain.store.OpenSnapshot("k").ok());  // Before the window.
  clock.Advance(Duration::Seconds(15));
  EXPECT_EQ(chain.store.OpenSnapshot("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(chain.store.PutSnapshot("k2", Blob("v")).status().code(),
            StatusCode::kUnavailable);
  clock.Advance(Duration::Seconds(10));
  EXPECT_TRUE(chain.store.OpenSnapshot("k").ok());  // After the window.
  EXPECT_EQ(chain.store.stats().outage_faults, 2u);
}

TEST(FaultySnapshotStoreTest, OutageWindowScopedToOtherDomainIsIgnored) {
  SimClock clock;
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;  // Database-only outage.
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(100);
  plan.windows.push_back(window);
  FlatChain chain(plan, &clock);
  ASSERT_TRUE(chain.inner.Put("k", Blob("v")).ok());
  clock.Advance(Duration::Seconds(5));
  EXPECT_TRUE(chain.store.OpenSnapshot("k").ok());
  EXPECT_EQ(chain.store.faults_injected(), 0u);
}

TEST(FaultySnapshotStoreTest, LatencyWindowAdvancesClock) {
  SimClock clock;
  FaultPlan plan;
  FaultWindow window;
  window.kind = FaultWindow::Kind::kLatency;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(10);
  window.extra_latency = Duration::Millis(250);
  plan.windows.push_back(window);
  FlatChain chain(plan, &clock);
  ASSERT_TRUE(chain.inner.Put("k", Blob("v")).ok());

  const TimePoint before = clock.now();
  EXPECT_TRUE(chain.store.OpenSnapshot("k").ok());
  EXPECT_EQ(clock.now() - before, Duration::Millis(250));
  EXPECT_EQ(chain.store.stats().latency_injections, 1u);
  // Outside the window the op is full speed again.
  clock.AdvanceTo(TimePoint() + Duration::Seconds(11));
  const TimePoint after = clock.now();
  EXPECT_TRUE(chain.store.OpenSnapshot("k").ok());
  EXPECT_EQ(clock.now(), after);
}

// Drives a fixed mixed-op script through `store` (rates, an outage window,
// and a latency window all firing) and returns a transcript of every
// outcome plus the inner store's final contents.
std::string FlatChaosTranscript(SnapshotStore& store, InMemoryObjectStore& inner,
                                SimClock& clock) {
  std::string out;
  const auto code = [](StatusCode c) { return std::to_string(static_cast<int>(c)); };
  for (uint32_t i = 0; i < 300; ++i) {
    clock.Advance(Duration::Seconds(1));
    const std::string key = "k" + std::to_string(i % 7);
    switch (i % 5) {
      case 0: {
        std::vector<uint8_t> payload(32);
        for (size_t b = 0; b < payload.size(); ++b) {
          payload[b] = static_cast<uint8_t>(i * 31 + b);
        }
        out += "p" + code(store.PutSnapshot(key, ObjectBlob(payload, 1000 + i))
                              .status()
                              .code());
        break;
      }
      case 1: {
        auto reader = store.OpenSnapshot(key);
        if (!reader.ok()) {
          out += "o" + code(reader.status().code());
          break;
        }
        auto blob = (*reader)->ReadAll();
        out += "o" + std::to_string(Crc32(blob->bytes()));
        break;
      }
      case 2:
        out += store.ContainsSnapshot(key) ? "cT" : "cF";
        break;
      case 3:
        out += "l" + std::to_string(store.ListSnapshots("k").size());
        break;
      default:
        out += "d" + code(store.DeleteSnapshot(key).code());
        break;
    }
  }
  for (const std::string& key : inner.ListKeys("")) {
    const ObjectBlob blob = *inner.Get(key);
    out += "|" + key + ":" + std::to_string(blob.logical_size) + ":" +
           std::to_string(Crc32(blob.bytes()));
  }
  out += "|t" + std::to_string((clock.now() - TimePoint()).ToMillis());
  return out;
}

FaultPlan FlatChaosPlan() {
  FaultPlan plan;
  plan.get_failure_rate = 0.2;
  plan.put_failure_rate = 0.2;
  plan.delete_failure_rate = 0.2;
  plan.metadata_failure_rate = 0.2;
  plan.torn_write_rate = 0.1;
  plan.corruption_rate = 0.1;
  plan.seed = 17;
  FaultWindow outage;
  outage.kind = FaultWindow::Kind::kOutage;
  outage.domain = FaultDomain::kObjectStore;
  outage.start = TimePoint() + Duration::Seconds(50);
  outage.end = TimePoint() + Duration::Seconds(70);
  plan.windows.push_back(outage);
  FaultWindow latency;
  latency.kind = FaultWindow::Kind::kLatency;
  latency.domain = FaultDomain::kObjectStore;
  latency.start = TimePoint() + Duration::Seconds(100);
  latency.end = TimePoint() + Duration::Seconds(120);
  latency.extra_latency = Duration::Millis(100);
  plan.windows.push_back(latency);
  return plan;
}

// The flat chaos trajectory, pinned: every fault kind fires (rate, outage,
// metadata, corruption, torn, latency) and the transcript CRC plus the
// injection counters must reproduce bit-for-bit.
TEST(FaultySnapshotStoreTest, FlatTrajectoryMatchesPinnedTranscript) {
  SimClock clock;
  FlatChain chain(FlatChaosPlan(), &clock);
  const std::string transcript = FlatChaosTranscript(chain.store, chain.inner, clock);
  EXPECT_EQ(Crc32(std::vector<uint8_t>(transcript.begin(), transcript.end())),
            0x4173eb60u)
      << transcript;
  const FaultInjectionStats& stats = chain.store.stats();
  EXPECT_EQ(stats.faults_injected, 75u);
  EXPECT_EQ(stats.outage_faults, 20u);
  EXPECT_EQ(stats.metadata_faults, 29u);
  EXPECT_EQ(stats.corrupted_puts, 3u);
  EXPECT_EQ(stats.torn_puts, 5u);
  EXPECT_EQ(stats.latency_injections, 19u);
}

TEST(FaultyKvDatabaseTest, MetadataFaultsHideKeys) {
  InMemoryKvDatabase inner;
  ASSERT_TRUE(inner.Put("state/fn", {1}).ok());
  FaultPlan plan;
  plan.metadata_failure_rate = 1.0;
  FaultyKvDatabase db(inner, plan);
  EXPECT_TRUE(db.ListKeys("state/").empty());
  EXPECT_EQ(db.stats().metadata_faults, 1u);
}

TEST(FaultyKvDatabaseTest, OutageWindowCoversDatabaseDomain) {
  SimClock clock;
  InMemoryKvDatabase inner;
  ASSERT_TRUE(inner.Put("k", {1}).ok());
  FaultPlan plan;
  FaultWindow window;
  window.domain = FaultDomain::kDatabase;
  window.start = TimePoint();
  window.end = TimePoint() + Duration::Seconds(2);
  plan.windows.push_back(window);
  FaultyKvDatabase db(inner, plan, &clock);
  EXPECT_EQ(db.Get("k").status().code(), StatusCode::kUnavailable);
  clock.Advance(Duration::Seconds(3));
  EXPECT_TRUE(db.Get("k").ok());
}

TEST(FaultPlanTest, ActiveDetectsAnyFaultSource) {
  EXPECT_FALSE(FaultPlan{}.Active());
  FaultPlan rates;
  rates.torn_write_rate = 0.01;
  EXPECT_TRUE(rates.Active());
  FaultPlan windows;
  windows.windows.push_back(FaultWindow{});
  EXPECT_TRUE(windows.Active());
}

TEST(FaultyKvDatabaseTest, ReadsAndWritesFailIndependently) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 1.0;
  plan.put_failure_rate = 0.0;
  FaultyKvDatabase db(inner, plan);
  ASSERT_TRUE(db.Put("k", {1}).ok());
  EXPECT_EQ(db.Get("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.GetVersioned("k").status().code(), StatusCode::kUnavailable);
  // Increment counts as a write.
  EXPECT_TRUE(db.Increment("counter").ok());
}

TEST(FaultyKvDatabaseTest, CasCountsAsWrite) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.put_failure_rate = 1.0;
  FaultyKvDatabase db(inner, plan);
  EXPECT_EQ(db.CompareAndSwap("k", 0, {1}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.Increment("k").status().code(), StatusCode::kUnavailable);
}

TEST(PolicyStateStoreResilienceTest, RetriesTransientDatabaseFailures) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 0.3;
  plan.put_failure_rate = 0.3;
  plan.seed = 2;
  FaultyKvDatabase db(inner, plan);
  PolicyStateStore store(db, "fn", PolicyConfig{});

  // With 30% fault rates and bounded retries, updates still succeed reliably.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store
                    .Update([i](PolicyState& state) {
                      state.theta.Update(static_cast<uint64_t>(i % 20) + 1, 0.1, 0.3);
                    })
                    .ok())
        << "update " << i;
    ASSERT_TRUE(store.AllocateSnapshotId().ok());
  }
  auto state = store.Load();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->theta.ExploredCount(), 20u);
  EXPECT_GT(db.faults_injected(), 0u);  // Faults actually fired.
}

TEST(PolicyStateStoreResilienceTest, PersistentOutageSurfaces) {
  InMemoryKvDatabase inner;
  FaultPlan plan;
  plan.get_failure_rate = 1.0;
  plan.put_failure_rate = 1.0;
  FaultyKvDatabase db(inner, plan);
  PolicyStateStore store(db, "fn", PolicyConfig{});
  EXPECT_EQ(store.Load().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.Update([](PolicyState&) {}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.AllocateSnapshotId().status().code(), StatusCode::kUnavailable);
}

TEST(OrchestratorResilienceTest, RestoreFaultsFallBackToColdStart) {
  // An orchestrator whose object store drops every read must still launch
  // workers: restore failures degrade to cold starts, never to errors.
  const auto profile = WorkloadRegistry::Default().Find("DynamicHTML");
  ASSERT_TRUE(profile.ok());
  PolicyConfig config;
  config.beta = 2;
  config.pool_capacity = 4;
  config.max_checkpoint_request = 20;
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  SimClock clock;
  InMemoryKvDatabase db;
  FaultPlan plan;
  plan.get_failure_rate = 1.0;  // Every snapshot download fails.
  FlatChain chain(plan);
  CriuLikeEngine engine(3);
  PolicyStateStore state_store(db, (*profile)->name, config);
  Orchestrator orchestrator(**profile, WorkloadRegistry::Default(), *policy, engine,
                            chain.store, state_store, clock, /*seed=*/9);

  for (int lifetime = 0; lifetime < 5; ++lifetime) {
    auto session = orchestrator.StartWorker();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_FALSE(session->restored);  // Downloads always fail -> cold.
    for (uint64_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(orchestrator.ServeRequest(*session, {i, 1.0}).ok());
    }
  }
  EXPECT_GT(chain.store.faults_injected(), 0u);
}

}  // namespace
}  // namespace pronghorn
