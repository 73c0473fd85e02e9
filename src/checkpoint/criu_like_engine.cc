#include "src/checkpoint/criu_like_engine.h"

#include <algorithm>

namespace pronghorn {

namespace {

// CRIU's floor: even a trivial process dump/restore takes a few ms.
constexpr int64_t kMinCostMs = 5;

}  // namespace

CriuLikeEngine::CriuLikeEngine(uint64_t seed) : rng_(HashCombine(seed, 0xc41uLL)) {}

Duration CriuLikeEngine::DrawCost(Duration mean, Duration stddev) {
  const double us = rng_.Gaussian(static_cast<double>(mean.ToMicros()),
                                  static_cast<double>(stddev.ToMicros()));
  return Duration::Micros(
      std::max<int64_t>(static_cast<int64_t>(us), kMinCostMs * 1000));
}

Result<CheckpointOutcome> CriuLikeEngine::Checkpoint(const RuntimeProcess& process,
                                                     SnapshotId id, TimePoint now) {
  if (id.value == 0) {
    return InvalidArgumentError("snapshot id 0 is reserved");
  }
  ByteWriter writer;
  writer.Reserve(last_payload_bytes_);
  process.Serialize(writer);
  last_payload_bytes_ = writer.size();

  SnapshotMetadata metadata;
  metadata.id = id;
  metadata.function = process.profile().name;
  metadata.request_number = process.requests_executed();
  metadata.logical_size_bytes =
      static_cast<uint64_t>(process.MemoryFootprintMb() * 1024.0 * 1024.0);
  metadata.created_at = now;

  const WorkloadProfile& profile = process.profile();
  const Duration downtime = DrawCost(profile.checkpoint_mean, profile.checkpoint_stddev);

  RecordCheckpoint(downtime);
  SnapshotImage image(std::move(metadata), writer.TakeData());
  ObjectBlob blob(image.Encode(), image.metadata().logical_size_bytes);
  return CheckpointOutcome{std::move(image), downtime, std::move(blob)};
}

Result<RestoreOutcome> CriuLikeEngine::Restore(const SnapshotImage& image,
                                               const WorkloadRegistry& registry) {
  PRONGHORN_ASSIGN_OR_RETURN(RuntimeProcess process, image.DecodeProcess(registry));
  // Restored workers run in a fresh environment; JIT behavior from here on is
  // not a replay of the checkpointed worker's future.
  process.ReseedForRestore(rng_.NextUint64());

  const WorkloadProfile& profile = process.profile();
  const Duration restore_time = DrawCost(profile.restore_mean, profile.restore_stddev);

  RecordRestore(restore_time);
  return RestoreOutcome(std::move(process), restore_time);
}

}  // namespace pronghorn
