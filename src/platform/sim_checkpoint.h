// Resumable simulation checkpoints: crash-consistent snapshots of a running
// (or finished) experiment, so week-long fleet replays survive restarts
// (DESIGN.md §13).
//
// The simulator dogfoods its own checkpoint abstractions: a checkpoint file
// is a SnapshotImage (src/checkpoint/snapshot.h) whose payload is the
// serialized simulator state and whose metadata carries the experiment
// fingerprint — so the framing (magic, version, CRC32 trailer) and the
// corruption semantics (kDataLoss on torn or bit-flipped files) are exactly
// the ones the orchestration paths already rely on.
//
// Granularity argument: every deployment's trajectory is a pure function of
// (fleet seed, deployment name) — the RNG substreams, SimCore slot states,
// simulated clock, and arrival cursors of an in-flight deployment are all
// derived state that deterministic replay regenerates bit-for-bit. The
// minimal sufficient checkpoint is therefore the streaming accumulator's
// state at completed-deployment boundaries: which deployments finished,
// their digest rows, the merged aggregates, and the retained report bodies.
// Resume re-runs only unfinished deployments and reproduces the
// uninterrupted run's digest exactly (tests/sim_checkpoint_test.cc).
//
// Crash consistency: writes land in `<file>.tmp`, are flushed and fsynced,
// then atomically renamed over `<file>`. A kill at any instant leaves either
// the previous complete checkpoint or the new complete checkpoint — never a
// torn frame — and a torn or corrupt file is detected by the CRC trailer and
// reported as kDataLoss rather than silently resumed from.

#ifndef PRONGHORN_SRC_PLATFORM_SIM_CHECKPOINT_H_
#define PRONGHORN_SRC_PLATFORM_SIM_CHECKPOINT_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_options.h"

namespace pronghorn {

// Stable fingerprint of the experiment a checkpoint belongs to: the fleet
// seed, engine kind, eviction spec, retention options, and the canonical
// (name, requests, slots) list of deployments. Resuming is refused when the
// fingerprint disagrees — a checkpoint must never silently continue a
// different experiment.
struct SimFingerprint {
  uint64_t seed = 0;
  uint32_t topology = 0;  // SimTopology ordinal of the producing run.
  // Fold one deployment into the fingerprint (order-insensitive: entries are
  // hashed individually and combined with an XOR-style commutative mix).
  void AddFunction(std::string_view name, uint64_t requests, uint32_t worker_slots,
                   uint32_t exploring_slots);
  void AddOptions(const SimOptions& options);

  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0x70534b43u;  // Arbitrary non-zero start.
};

// Atomic checkpoint file IO. `path` is the full file path; `Write` goes
// through `path + ".tmp"` + fsync + rename.
Status WriteSimCheckpointFile(const std::string& path, uint64_t fingerprint,
                              uint64_t progress, std::span<const uint8_t> payload);

// Reads and validates a checkpoint file: kNotFound when absent, kDataLoss on
// a torn/corrupt frame, kFailedPrecondition when `fingerprint` disagrees.
Result<std::vector<uint8_t>> ReadSimCheckpointFile(const std::string& path,
                                                   uint64_t fingerprint);

// The whole-run checkpoint file a kSingle/kPlatform Simulate() writes (a
// different name from the fleet's incremental file, so the two granularities
// can never be confused for one another).
std::string WholeRunCheckpointPath(const std::string& dir);

// Periodic checkpointer for streaming fleet runs: thread-safe, writes the
// accumulator's state every `options.every` completed deployments plus a
// final frame at the end of the run. Shards call OnFold() right after their
// Fold(); the writer serializes under the accumulator's own lock, so a
// frame is always a consistent prefix of the run.
class FleetCheckpointer {
 public:
  FleetCheckpointer(const SimCheckpointOptions& options, uint64_t fingerprint,
                    const StreamingAccumulator& accumulator);

  // The checkpoint file a fleet run with checkpoint directory `dir` writes.
  static std::string FilePath(const std::string& dir);

  // Called after every fold; writes a frame when the cadence is due. The
  // first IO failure is latched and returned by Finish().
  void OnFold();

  // Writes the final frame unconditionally and reports any latched error.
  Status Finish();

 private:
  Status WriteFrame();

  const SimCheckpointOptions options_;
  const uint64_t fingerprint_;
  const StreamingAccumulator& accumulator_;

  std::mutex mutex_;
  uint64_t folds_since_write_ = 0;
  Status first_error_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_SIM_CHECKPOINT_H_
