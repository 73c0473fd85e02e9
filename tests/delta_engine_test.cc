#include "src/checkpoint/delta_engine.h"

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/orchestrator.h"
#include "src/core/request_centric_policy.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"

namespace pronghorn {
namespace {

const WorkloadProfile& Profile(const char* name) {
  auto result = WorkloadRegistry::Default().Find(name);
  EXPECT_TRUE(result.ok());
  return **result;
}

RuntimeProcess WarmProcess(const char* name, uint64_t requests, uint64_t seed) {
  RuntimeProcess process = RuntimeProcess::ColdStart(Profile(name), seed);
  for (uint64_t i = 0; i < requests; ++i) {
    process.Execute({i, 1.0});
  }
  return process;
}

TEST(DeltaCheckpointEngineTest, FirstSnapshotIsFullBase) {
  DeltaCheckpointEngine engine(1);
  RuntimeProcess process = WarmProcess("BFS", 50, 1);
  EXPECT_FALSE(engine.HasBase("BFS"));
  auto checkpoint = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_TRUE(engine.HasBase("BFS"));
  const double mb = static_cast<double>(checkpoint->image.metadata().logical_size_bytes) /
                    1048576.0;
  EXPECT_NEAR(mb, process.MemoryFootprintMb(), 0.01);
}

TEST(DeltaCheckpointEngineTest, SubsequentSnapshotsAreSmallDeltas) {
  DeltaCheckpointEngine engine(2);
  RuntimeProcess process = WarmProcess("BFS", 50, 2);
  auto base = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  ASSERT_TRUE(base.ok());
  for (uint64_t i = 0; i < 20; ++i) {
    process.Execute({100 + i, 1.0});
  }
  auto delta = engine.Checkpoint(process, SnapshotId{2}, TimePoint());
  ASSERT_TRUE(delta.ok());
  const double ratio =
      static_cast<double>(delta->image.metadata().logical_size_bytes) /
      static_cast<double>(base->image.metadata().logical_size_bytes);
  EXPECT_NEAR(ratio, 0.12, 0.02);
}

TEST(DeltaCheckpointEngineTest, DeltaCheckpointsAreFaster) {
  DeltaCheckpointEngine engine(3);
  RuntimeProcess process = WarmProcess("Compression", 30, 3);  // 105ms mean.
  auto base = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  ASSERT_TRUE(base.ok());
  OnlineStats delta_ms;
  for (int i = 0; i < 30; ++i) {
    auto delta = engine.Checkpoint(process, SnapshotId{10 + static_cast<uint64_t>(i)},
                                   TimePoint());
    ASSERT_TRUE(delta.ok());
    delta_ms.Add(delta->downtime.ToMillis());
  }
  // ~35% of the 105ms full checkpoint.
  EXPECT_NEAR(delta_ms.mean(), 105.0 * 0.35, 8.0);
}

TEST(DeltaCheckpointEngineTest, RestorePaysPatchOverhead) {
  DeltaCheckpointEngine delta_engine(4);
  RuntimeProcess process = WarmProcess("Uploader", 30, 4);  // 30.2ms restore.
  auto checkpoint = delta_engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());
  OnlineStats restore_ms;
  for (int i = 0; i < 40; ++i) {
    auto restored = delta_engine.Restore(checkpoint->image, WorkloadRegistry::Default());
    ASSERT_TRUE(restored.ok());
    restore_ms.Add(restored->restore_time.ToMillis());
  }
  EXPECT_NEAR(restore_ms.mean(), 30.2 * 1.15, 3.0);
}

TEST(DeltaCheckpointEngineTest, BasesAreTrackedPerFunction) {
  DeltaCheckpointEngine engine(5);
  RuntimeProcess bfs = WarmProcess("BFS", 20, 5);
  RuntimeProcess mst = WarmProcess("MST", 20, 6);
  ASSERT_TRUE(engine.Checkpoint(bfs, SnapshotId{1}, TimePoint()).ok());
  EXPECT_TRUE(engine.HasBase("BFS"));
  EXPECT_FALSE(engine.HasBase("MST"));
  // MST's first snapshot is still a full base.
  auto mst_base = engine.Checkpoint(mst, SnapshotId{2}, TimePoint());
  ASSERT_TRUE(mst_base.ok());
  const double mb = static_cast<double>(mst_base->image.metadata().logical_size_bytes) /
                    1048576.0;
  EXPECT_GT(mb, 40.0);
}

TEST(DeltaCheckpointEngineTest, RoundTripPreservesState) {
  DeltaCheckpointEngine engine(6);
  RuntimeProcess process = WarmProcess("DynamicHTML", 80, 7);
  auto base = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  ASSERT_TRUE(base.ok());
  auto delta = engine.Checkpoint(process, SnapshotId{2}, TimePoint());
  ASSERT_TRUE(delta.ok());
  // Deltas still restore to the complete process state.
  auto restored = engine.Restore(delta->image, WorkloadRegistry::Default());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->process.requests_executed(), 80u);
}

TEST(DeltaCheckpointEngineTest, WorksAsDropInForOrchestration) {
  // §4 agnosticism: the orchestrator runs unchanged on the delta engine, and
  // cumulative upload traffic collapses because only the first snapshot is a
  // full image.
  const WorkloadProfile& profile = Profile("BFS");
  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 12;
  config.max_checkpoint_request = 100;
  const auto policy = RequestCentricPolicy::Create(config);
  ASSERT_TRUE(policy.ok());

  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore object_store;
  DeltaCheckpointEngine engine(9);
  PolicyStateStore state_store(db, profile.name, config);
  FlatSnapshotStore snapshot_store(object_store);
  Orchestrator orchestrator(profile, WorkloadRegistry::Default(), *policy, engine,
                            snapshot_store, state_store, clock, /*seed=*/10);

  for (int lifetime = 0; lifetime < 10; ++lifetime) {
    auto session = orchestrator.StartWorker();
    ASSERT_TRUE(session.ok());
    for (uint64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(orchestrator.ServeRequest(*session, {i, 1.0}).ok());
    }
  }
  EXPECT_GT(engine.checkpoints_taken(), 3u);
  EXPECT_GT(engine.restores_performed(), 0u);
  // Uploads: 1 full base (~53 MB) + N deltas (~6 MB each) — far below N
  // full images.
  const double uploaded_mb =
      static_cast<double>(object_store.accounting().network_bytes_uploaded) / 1048576.0;
  const double full_images_mb =
      profile.snapshot_mb * static_cast<double>(engine.checkpoints_taken());
  EXPECT_LT(uploaded_mb, full_images_mb * 0.5);
}

TEST(DeltaCheckpointEngineTest, RejectsReservedIdAndCorruptMetadata) {
  DeltaCheckpointEngine engine(7);
  RuntimeProcess process = WarmProcess("Hash", 10, 8);
  EXPECT_FALSE(engine.Checkpoint(process, SnapshotId{0}, TimePoint()).ok());

  auto checkpoint = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());
  SnapshotMetadata forged = checkpoint->image.metadata();
  forged.request_number = 12345;
  SnapshotImage forged_image(forged, checkpoint->image.payload());
  // A failed decode is never remembered: every call re-checks and fails.
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(engine.Restore(forged_image, WorkloadRegistry::Default()).status().code(),
              StatusCode::kDataLoss)
        << "call " << call;
  }
}

// Restoring one image object twice equals restoring two freshly decoded
// copies with a same-seeded engine: the remembered decode changes nothing.
TEST(DeltaCheckpointEngineTest, RepeatRestoresOfOneImageMatchFreshDecodes) {
  DeltaCheckpointEngine source(10);
  RuntimeProcess process = WarmProcess("PageRank", 90, 9);
  auto checkpoint = source.Checkpoint(process, SnapshotId{3}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());
  const std::vector<uint8_t> wire = checkpoint->image.Encode();
  auto shared = SnapshotImage::Decode(wire);
  ASSERT_TRUE(shared.ok());

  DeltaCheckpointEngine reusing(11);
  DeltaCheckpointEngine decoding(11);
  for (int restore = 0; restore < 2; ++restore) {
    auto copy = SnapshotImage::Decode(wire);
    ASSERT_TRUE(copy.ok());
    auto a = reusing.Restore(*shared, WorkloadRegistry::Default());
    auto b = decoding.Restore(*copy, WorkloadRegistry::Default());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a->process.StateEquals(b->process)) << "restore " << restore;
    EXPECT_EQ(a->restore_time, b->restore_time) << "restore " << restore;
  }
}

}  // namespace
}  // namespace pronghorn
