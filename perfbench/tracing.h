// Host-time spans for the benchmark's traced run, and the timing decorators
// that record them around each layer's public interface.
//
// Every span names the layer call it times (`core.commit`, `kv.cas`, ...).
// Spans nest per thread: a span's self time is its duration minus the
// durations of the spans it encloses on the same thread. Accumulators are
// per thread (no shared atomics on the recording path) because the service
// workload runs decorated layers on the service's shard threads while the
// client thread waits.
//
// Cross-thread attribution: a client-side `service.*` span blocks while a
// shard thread does the orchestrator's work. Root spans on threads other than
// the main thread add their duration to one global counter, and `service.*`
// spans subtract the growth of that counter over their lifetime, so their
// self time is framing, CRC, queueing and wakeups only. This is exact while
// one client request is in flight, which the serial traced run guarantees.

#ifndef PRONGHORN_PERFBENCH_TRACING_H_
#define PRONGHORN_PERFBENCH_TRACING_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/checkpoint/engine.h"
#include "src/core/orchestrator.h"
#include "src/core/policy.h"
#include "src/service/backend.h"
#include "src/store/kv_database.h"
#include "src/store/snapshot_store.h"

namespace pronghorn::perfbench {

// Every timed call, in report order. Names are "<module>.<call>".
enum class SpanId : uint8_t {
  kPlatformDeploy,
  kPlatformServe,
  kPlatformEvict,
  kPlatformFold,
  kCoreStartWorker,
  kCoreCommit,
  kCoreCheckpoint,
  kPolicyOnWorkerStart,
  kPolicyOnRequestComplete,
  kPolicyOnSnapshotAdded,
  kJitExecute,
  kCheckpointCheckpoint,
  kCheckpointRestore,
  kStorePut,
  kStoreOpen,
  kStoreReadAll,
  kStoreDelete,
  kKvGet,
  kKvCas,
  kKvIncrement,
  kServiceStart,
  kServiceServe,
  kServiceEnd,
  kCount,
};

inline constexpr size_t kSpanCount = static_cast<size_t>(SpanId::kCount);

std::string_view SpanName(SpanId id);

struct SpanTotals {
  uint64_t calls = 0;
  uint64_t self_ns = 0;
};

// Process-wide span recorder. Threads register lazily on their first span;
// their accumulators outlive them, so totals can be read after the service's
// shard threads have exited.
class Tracer {
 public:
  // Marks the calling thread as the main thread (its root spans are the
  // run's roots, not work done on behalf of a blocked client).
  static void SetMainThread();
  // Clears every thread's accumulators. Call only while no span is open.
  static void Reset();
  // Sums of every thread's accumulators.
  static std::array<SpanTotals, kSpanCount> Totals();
};

// RAII span. `subtract_detached` marks a client call whose callee runs on
// another thread (see the file comment).
class Span {
 public:
  explicit Span(SpanId id, bool subtract_detached = false);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  struct ThreadState* state_;
};

// ---------------------------------------------------------------------------
// Timing decorators: each forwards every call unchanged to the wrapped
// implementation and times the calls named in SpanId.

class TimedPolicy final : public OrchestrationPolicy {
 public:
  explicit TimedPolicy(const OrchestrationPolicy& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  const PolicyConfig& config() const override { return inner_.config(); }
  StartDecision OnWorkerStart(const PolicyState& state, Rng& rng) const override;
  void OnRequestComplete(PolicyState& state, uint64_t request_number,
                         Duration latency) const override;
  std::vector<PoolEntry> OnSnapshotAdded(PolicyState& state, Rng& rng) const override;

 private:
  const OrchestrationPolicy& inner_;
};

// Records the encoded bytes of every checkpoint image it times.
class TimedEngine final : public CheckpointEngine {
 public:
  explicit TimedEngine(std::unique_ptr<CheckpointEngine> inner)
      : inner_(std::move(inner)) {}

  Result<CheckpointOutcome> Checkpoint(const RuntimeProcess& process, SnapshotId id,
                                       TimePoint now) override;
  Result<RestoreOutcome> Restore(const SnapshotImage& image,
                                 const WorkloadRegistry& registry) override;

  uint64_t image_bytes() const { return image_bytes_; }
  uint64_t images() const { return images_; }

 private:
  std::unique_ptr<CheckpointEngine> inner_;
  uint64_t image_bytes_ = 0;
  uint64_t images_ = 0;
};

class TimedSnapshotStore final : public SnapshotStore {
 public:
  explicit TimedSnapshotStore(SnapshotStore& inner) : inner_(inner) {}

  Result<SnapshotRef> PutSnapshot(std::string_view key, ObjectBlob blob) override;
  Result<std::unique_ptr<SnapshotReader>> OpenSnapshot(std::string_view key) override;
  Status DeleteSnapshot(std::string_view key) override;
  bool ContainsSnapshot(std::string_view key) const override {
    return inner_.ContainsSnapshot(key);
  }
  std::vector<std::string> ListSnapshots(std::string_view prefix) const override {
    return inner_.ListSnapshots(prefix);
  }
  Status Pin(std::string_view key) override { return inner_.Pin(key); }
  Status Unpin(std::string_view key) override { return inner_.Unpin(key); }
  uint64_t CollectGarbage() override { return inner_.CollectGarbage(); }
  StoreAccounting accounting() const override { return inner_.accounting(); }
  Status CorruptChunk(std::string_view key, Rng& rng) override {
    return inner_.CorruptChunk(key, rng);
  }
  Status CorruptManifest(std::string_view key, Rng& rng) override {
    return inner_.CorruptManifest(key, rng);
  }
  void set_obs(ObsSink* obs, ObsTrack track) override { inner_.set_obs(obs, track); }

 private:
  SnapshotStore& inner_;
};

class TimedKvDatabase final : public KvDatabase {
 public:
  explicit TimedKvDatabase(KvDatabase& inner) : inner_(inner) {}

  Status Put(std::string_view key, std::vector<uint8_t> value) override {
    return inner_.Put(key, std::move(value));
  }
  Result<std::vector<uint8_t>> Get(std::string_view key) override;
  Result<VersionedValue> GetVersioned(std::string_view key) override;
  Status CompareAndSwap(std::string_view key, uint64_t expected_version,
                        std::vector<uint8_t> value) override;
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  Result<int64_t> Increment(std::string_view key) override;
  std::vector<std::string> ListKeys(std::string_view prefix) const override {
    return inner_.ListKeys(prefix);
  }
  KvAccounting accounting() const override { return inner_.accounting(); }

 private:
  KvDatabase& inner_;
};

// In-process backend that issues ServeRequest as its three documented phases
// (ExecuteBuffered + CommitObservations + MaybeCheckpoint), so each phase is
// its own span; otherwise identical to LocalWorkerBackend. The orchestrator
// is borrowed and must outlive the backend.
class SplitLocalBackend final : public WorkerBackend {
 public:
  explicit SplitLocalBackend(Orchestrator* orchestrator) : orchestrator_(orchestrator) {}

  Result<SessionView> StartWorker() override;
  Result<RequestOutcome> ServeRequest(const FunctionRequest& request) override;
  SessionEnd EndSession() override;

 private:
  Orchestrator* orchestrator_;
  std::optional<WorkerSession> session_;
};

// Times a wire client's lifecycle calls as `service.*`.
class TimedServiceBackend final : public WorkerBackend {
 public:
  explicit TimedServiceBackend(WorkerBackend& inner) : inner_(inner) {}

  Result<SessionView> StartWorker() override;
  Result<RequestOutcome> ServeRequest(const FunctionRequest& request) override;
  SessionEnd EndSession() override;

 private:
  WorkerBackend& inner_;
};

}  // namespace pronghorn::perfbench

#endif  // PRONGHORN_PERFBENCH_TRACING_H_
