#include "src/checkpoint/delta_engine.h"

#include <algorithm>

namespace pronghorn {

namespace {

constexpr int64_t kMinCostMs = 3;  // Even a tiny delta write takes a few ms.

}  // namespace

DeltaCheckpointEngine::DeltaCheckpointEngine(uint64_t seed, DeltaEngineOptions options)
    : rng_(HashCombine(seed, 0xde17aULL)), options_(options) {}

Duration DeltaCheckpointEngine::DrawCost(Duration mean, Duration stddev) {
  const double us = rng_.Gaussian(static_cast<double>(mean.ToMicros()),
                                  static_cast<double>(stddev.ToMicros()));
  return Duration::Micros(
      std::max<int64_t>(static_cast<int64_t>(us), kMinCostMs * 1000));
}

Result<CheckpointOutcome> DeltaCheckpointEngine::Checkpoint(
    const RuntimeProcess& process, SnapshotId id, TimePoint now) {
  if (id.value == 0) {
    return InvalidArgumentError("snapshot id 0 is reserved");
  }
  ByteWriter writer;
  writer.Reserve(last_payload_bytes_);
  process.Serialize(writer);
  last_payload_bytes_ = writer.size();

  const WorkloadProfile& profile = process.profile();
  const bool is_base = !base_taken_.contains(profile.name);
  const double size_fraction = is_base ? 1.0 : options_.delta_size_fraction;
  const double time_fraction = is_base ? 1.0 : options_.delta_checkpoint_fraction;

  SnapshotMetadata metadata;
  metadata.id = id;
  metadata.function = profile.name;
  metadata.request_number = process.requests_executed();
  metadata.logical_size_bytes = static_cast<uint64_t>(
      process.MemoryFootprintMb() * 1024.0 * 1024.0 * size_fraction);
  metadata.created_at = now;

  const Duration downtime =
      DrawCost(profile.checkpoint_mean * time_fraction,
               profile.checkpoint_stddev * time_fraction);
  base_taken_[profile.name] = true;
  RecordCheckpoint(downtime);
  SnapshotImage image(std::move(metadata), writer.TakeData());
  ObjectBlob blob(image.Encode(), image.metadata().logical_size_bytes);
  return CheckpointOutcome{std::move(image), downtime, std::move(blob)};
}

Result<RestoreOutcome> DeltaCheckpointEngine::Restore(const SnapshotImage& image,
                                                      const WorkloadRegistry& registry) {
  PRONGHORN_ASSIGN_OR_RETURN(RuntimeProcess process, image.DecodeProcess(registry));
  process.ReseedForRestore(rng_.NextUint64());

  const WorkloadProfile& profile = process.profile();
  const Duration restore_time =
      DrawCost(profile.restore_mean * (1.0 + options_.restore_overhead_fraction),
               profile.restore_stddev);
  RecordRestore(restore_time);
  return RestoreOutcome(std::move(process), restore_time);
}

}  // namespace pronghorn
