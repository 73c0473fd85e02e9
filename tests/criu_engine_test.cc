#include "src/checkpoint/criu_like_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/stats.h"

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

TEST(CriuLikeEngineTest, CheckpointRestorePreservesMaturity) {
  CriuLikeEngine engine(1);
  RuntimeProcess process = WarmProcess("DynamicHTML", 75, 10);

  auto checkpoint = engine.Checkpoint(process, SnapshotId{5}, TimePoint::FromMicros(99));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->image.metadata().request_number, 75u);
  EXPECT_EQ(checkpoint->image.metadata().function, "DynamicHTML");
  EXPECT_EQ(checkpoint->image.metadata().id.value, 5u);
  EXPECT_EQ(checkpoint->image.metadata().created_at, TimePoint::FromMicros(99));

  auto restored = engine.Restore(checkpoint->image, WorkloadRegistry::Default());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->process.requests_executed(), 75u);
  EXPECT_EQ(restored->process.profile().name, "DynamicHTML");
  // Tier distribution carried over: a 75-request process is partially warm.
  EXPECT_GT(restored->process.CountAtTier(CompilationTier::kBaseline) +
                restored->process.CountAtTier(CompilationTier::kOptimized),
            0u);
}

TEST(CriuLikeEngineTest, RejectsReservedIdZero) {
  CriuLikeEngine engine(2);
  RuntimeProcess process = WarmProcess("Hash", 5, 11);
  auto checkpoint = engine.Checkpoint(process, SnapshotId{0}, TimePoint());
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kInvalidArgument);
}

TEST(CriuLikeEngineTest, CostsFollowTable4Model) {
  CriuLikeEngine engine(3);
  const WorkloadProfile& profile = Profile("Compression");  // 105ms / 39.1ms.
  RuntimeProcess process = WarmProcess("Compression", 20, 12);

  OnlineStats checkpoint_ms;
  OnlineStats restore_ms;
  for (int i = 0; i < 50; ++i) {
    auto checkpoint = engine.Checkpoint(process, SnapshotId{100 + static_cast<uint64_t>(i)},
                                        TimePoint());
    ASSERT_TRUE(checkpoint.ok());
    checkpoint_ms.Add(checkpoint->downtime.ToMillis());
    auto restored = engine.Restore(checkpoint->image, WorkloadRegistry::Default());
    ASSERT_TRUE(restored.ok());
    restore_ms.Add(restored->restore_time.ToMillis());
  }
  EXPECT_NEAR(checkpoint_ms.mean(), profile.checkpoint_mean.ToMillis(), 4.0);
  EXPECT_NEAR(restore_ms.mean(), profile.restore_mean.ToMillis(), 2.0);
  // CRIU never completes instantaneously.
  EXPECT_GE(checkpoint_ms.min(), 5.0);
  EXPECT_GE(restore_ms.min(), 5.0);
}

TEST(CriuLikeEngineTest, LogicalSizeTracksFootprint) {
  CriuLikeEngine engine(4);
  RuntimeProcess process = WarmProcess("BFS", 400, 13);
  auto checkpoint = engine.Checkpoint(process, SnapshotId{7}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());
  const double mb = static_cast<double>(checkpoint->image.metadata().logical_size_bytes) /
                    (1024.0 * 1024.0);
  EXPECT_NEAR(mb, process.MemoryFootprintMb(), 0.01);
  EXPECT_GT(mb, 40.0);  // Python snapshots are ~55 MB.
}

TEST(CriuLikeEngineTest, RestoreDetectsCorruptPayload) {
  CriuLikeEngine engine(5);
  RuntimeProcess process = WarmProcess("MST", 30, 14);
  auto checkpoint = engine.Checkpoint(process, SnapshotId{9}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());

  // Rebuild an image whose metadata disagrees with the serialized state.
  SnapshotMetadata forged = checkpoint->image.metadata();
  forged.request_number = 999;
  SnapshotImage forged_image(forged, checkpoint->image.payload());
  // A failed decode is never remembered: every call re-checks and fails.
  for (int call = 0; call < 3; ++call) {
    auto restored = engine.Restore(forged_image, WorkloadRegistry::Default());
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss) << "call " << call;
  }
}

// The engine remembers the process it decoded from an image. Restoring one
// image object twice must be indistinguishable from restoring two freshly
// decoded copies: same state after reseeding, same drawn restore time.
TEST(CriuLikeEngineTest, RepeatRestoresOfOneImageMatchFreshDecodes) {
  CriuLikeEngine source(9);
  RuntimeProcess process = WarmProcess("BFS", 60, 18);
  auto checkpoint = source.Checkpoint(process, SnapshotId{41}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());
  const std::vector<uint8_t> wire = checkpoint->image.Encode();
  auto shared = SnapshotImage::Decode(wire);
  ASSERT_TRUE(shared.ok());

  CriuLikeEngine reusing(10);
  CriuLikeEngine decoding(10);
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

TEST(CriuLikeEngineTest, RestoredProcessesDivergeFromEachOther) {
  CriuLikeEngine engine(6);
  RuntimeProcess process = WarmProcess("WordCount", 40, 15);
  auto checkpoint = engine.Checkpoint(process, SnapshotId{11}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());

  auto a = engine.Restore(checkpoint->image, WorkloadRegistry::Default());
  auto b = engine.Restore(checkpoint->image, WorkloadRegistry::Default());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Two workers from one snapshot must not replay identical futures (§2:
  // JIT compilation is not deterministic).
  bool diverged = false;
  for (uint64_t i = 0; i < 100 && !diverged; ++i) {
    diverged = a->process.Execute({i, 1.0}).latency != b->process.Execute({i, 1.0}).latency;
  }
  EXPECT_TRUE(diverged);
}

TEST(CriuLikeEngineTest, CountersAccumulate) {
  CriuLikeEngine engine(7);
  RuntimeProcess process = WarmProcess("DFS", 10, 16);
  EXPECT_EQ(engine.checkpoints_taken(), 0u);
  EXPECT_EQ(engine.restores_performed(), 0u);

  auto c1 = engine.Checkpoint(process, SnapshotId{1}, TimePoint());
  auto c2 = engine.Checkpoint(process, SnapshotId{2}, TimePoint());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(engine.Restore(c1->image, WorkloadRegistry::Default()).ok());

  EXPECT_EQ(engine.checkpoints_taken(), 2u);
  EXPECT_EQ(engine.restores_performed(), 1u);
  EXPECT_EQ(engine.total_checkpoint_time(), c1->downtime + c2->downtime);
  EXPECT_GT(engine.total_restore_time(), Duration::Zero());
}

TEST(CriuLikeEngineTest, FullImageWireRoundTrip) {
  // Checkpoint -> Encode -> Decode -> Restore, the exact path a snapshot
  // takes through the object store.
  CriuLikeEngine engine(8);
  RuntimeProcess process = WarmProcess("PageRank", 120, 17);
  auto checkpoint = engine.Checkpoint(process, SnapshotId{31}, TimePoint());
  ASSERT_TRUE(checkpoint.ok());

  const std::vector<uint8_t> wire = checkpoint->image.Encode();
  auto decoded = SnapshotImage::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  auto restored = engine.Restore(*decoded, WorkloadRegistry::Default());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->process.requests_executed(), 120u);
}

}  // namespace
}  // namespace pronghorn
