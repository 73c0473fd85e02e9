#include "perfbench/tracing.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <utility>

namespace pronghorn::perfbench {

namespace {

constexpr std::array<std::string_view, kSpanCount> kSpanNames = {
    "platform.deploy",
    "platform.serve",
    "platform.evict",
    "platform.fold",
    "core.start_worker",
    "core.commit",
    "core.checkpoint",
    "policy.on_worker_start",
    "policy.on_request_complete",
    "policy.on_snapshot_added",
    "jit.execute",
    "checkpoint.checkpoint",
    "checkpoint.restore",
    "store.put",
    "store.open",
    "store.read_all",
    "store.delete",
    "kv.get",
    "kv.cas",
    "kv.increment",
    "service.start",
    "service.serve",
    "service.end",
};

// Deep enough for the deepest chain (serve > commit > policy/kv) many times
// over; a deeper nest is a bug in the decorators.
constexpr size_t kMaxDepth = 32;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Durations of root spans on non-main threads, i.e. work a blocked client
// call waits for.
std::atomic<uint64_t> g_detached_ns{0};

}  // namespace

struct ThreadState {
  struct Frame {
    SpanId id = SpanId::kCount;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    uint64_t detached_at_start = 0;
    bool subtract_detached = false;
  };
  std::array<Frame, kMaxDepth> stack{};
  size_t depth = 0;
  bool main = false;
  // Written only by the owning thread; read by Totals()/Reset() after the
  // recorded work has finished (thread joins and client round trips order it).
  std::array<SpanTotals, kSpanCount> totals{};
};

namespace {

std::mutex g_registry_mutex;
std::deque<ThreadState> g_registry;  // Guarded by g_registry_mutex.

ThreadState& LocalState() {
  thread_local ThreadState* state = [] {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    return &g_registry.emplace_back();
  }();
  return *state;
}

}  // namespace

std::string_view SpanName(SpanId id) { return kSpanNames[static_cast<size_t>(id)]; }

void Tracer::SetMainThread() { LocalState().main = true; }

void Tracer::Reset() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (ThreadState& state : g_registry) {
    state.totals = {};
  }
}

std::array<SpanTotals, kSpanCount> Tracer::Totals() {
  std::array<SpanTotals, kSpanCount> sum{};
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const ThreadState& state : g_registry) {
    for (size_t i = 0; i < kSpanCount; ++i) {
      sum[i].calls += state.totals[i].calls;
      sum[i].self_ns += state.totals[i].self_ns;
    }
  }
  return sum;
}

Span::Span(SpanId id, bool subtract_detached) : state_(&LocalState()) {
  if (state_->depth == kMaxDepth) {
    state_ = nullptr;  // Not recorded; the enclosing span absorbs the time.
    return;
  }
  ThreadState::Frame& frame = state_->stack[state_->depth++];
  frame.id = id;
  frame.child_ns = 0;
  frame.subtract_detached = subtract_detached;
  frame.detached_at_start =
      subtract_detached ? g_detached_ns.load(std::memory_order_acquire) : 0;
  frame.start_ns = NowNs();
}

Span::~Span() {
  if (state_ == nullptr) {
    return;
  }
  const uint64_t end_ns = NowNs();
  ThreadState::Frame& frame = state_->stack[--state_->depth];
  const uint64_t duration = end_ns - frame.start_ns;
  uint64_t children = frame.child_ns;
  if (frame.subtract_detached) {
    children += g_detached_ns.load(std::memory_order_acquire) - frame.detached_at_start;
  }
  SpanTotals& totals = state_->totals[static_cast<size_t>(frame.id)];
  totals.calls += 1;
  totals.self_ns += duration > children ? duration - children : 0;
  if (state_->depth > 0) {
    state_->stack[state_->depth - 1].child_ns += duration;
  } else if (!state_->main) {
    g_detached_ns.fetch_add(duration, std::memory_order_acq_rel);
  }
}

// --- Policy -----------------------------------------------------------------

StartDecision TimedPolicy::OnWorkerStart(const PolicyState& state, Rng& rng) const {
  const Span span(SpanId::kPolicyOnWorkerStart);
  return inner_.OnWorkerStart(state, rng);
}

void TimedPolicy::OnRequestComplete(PolicyState& state, uint64_t request_number,
                                    Duration latency) const {
  const Span span(SpanId::kPolicyOnRequestComplete);
  inner_.OnRequestComplete(state, request_number, latency);
}

std::vector<PoolEntry> TimedPolicy::OnSnapshotAdded(PolicyState& state,
                                                    Rng& rng) const {
  const Span span(SpanId::kPolicyOnSnapshotAdded);
  return inner_.OnSnapshotAdded(state, rng);
}

// --- Checkpoint engine --------------------------------------------------------

Result<CheckpointOutcome> TimedEngine::Checkpoint(const RuntimeProcess& process,
                                                  SnapshotId id, TimePoint now) {
  const Span span(SpanId::kCheckpointCheckpoint);
  Result<CheckpointOutcome> outcome = inner_->Checkpoint(process, id, now);
  if (outcome.ok()) {
    image_bytes_ += outcome->blob.bytes().size();
    images_ += 1;
  }
  return outcome;
}

Result<RestoreOutcome> TimedEngine::Restore(const SnapshotImage& image,
                                            const WorkloadRegistry& registry) {
  const Span span(SpanId::kCheckpointRestore);
  return inner_->Restore(image, registry);
}

// --- Snapshot store -----------------------------------------------------------

namespace {

class TimedReader final : public SnapshotReader {
 public:
  explicit TimedReader(std::unique_ptr<SnapshotReader> inner) : inner_(std::move(inner)) {}

  const SnapshotRef& ref() const override { return inner_->ref(); }
  Result<ObjectBlob> ReadAll() override {
    const Span span(SpanId::kStoreReadAll);
    return inner_->ReadAll();
  }

 private:
  std::unique_ptr<SnapshotReader> inner_;
};

}  // namespace

Result<SnapshotRef> TimedSnapshotStore::PutSnapshot(std::string_view key,
                                                    ObjectBlob blob) {
  const Span span(SpanId::kStorePut);
  return inner_.PutSnapshot(key, std::move(blob));
}

Result<std::unique_ptr<SnapshotReader>> TimedSnapshotStore::OpenSnapshot(
    std::string_view key) {
  const Span span(SpanId::kStoreOpen);
  Result<std::unique_ptr<SnapshotReader>> reader = inner_.OpenSnapshot(key);
  if (!reader.ok()) {
    return reader;
  }
  return std::unique_ptr<SnapshotReader>(
      std::make_unique<TimedReader>(*std::move(reader)));
}

Status TimedSnapshotStore::DeleteSnapshot(std::string_view key) {
  const Span span(SpanId::kStoreDelete);
  return inner_.DeleteSnapshot(key);
}

// --- Database -----------------------------------------------------------------

Result<std::vector<uint8_t>> TimedKvDatabase::Get(std::string_view key) {
  const Span span(SpanId::kKvGet);
  return inner_.Get(key);
}

Result<VersionedValue> TimedKvDatabase::GetVersioned(std::string_view key) {
  const Span span(SpanId::kKvGet);
  return inner_.GetVersioned(key);
}

Status TimedKvDatabase::CompareAndSwap(std::string_view key, uint64_t expected_version,
                                       std::vector<uint8_t> value) {
  const Span span(SpanId::kKvCas);
  return inner_.CompareAndSwap(key, expected_version, std::move(value));
}

Result<int64_t> TimedKvDatabase::Increment(std::string_view key) {
  const Span span(SpanId::kKvIncrement);
  return inner_.Increment(key);
}

// --- Worker backends ----------------------------------------------------------

Result<SessionView> SplitLocalBackend::StartWorker() {
  const Span span(SpanId::kCoreStartWorker);
  PRONGHORN_ASSIGN_OR_RETURN(WorkerSession started, orchestrator_->StartWorker());
  session_.emplace(std::move(started));
  return MakeSessionView(*session_);
}

Result<RequestOutcome> SplitLocalBackend::ServeRequest(const FunctionRequest& request) {
  if (!session_.has_value()) {
    return FailedPreconditionError("no live worker session");
  }
  std::optional<RequestOutcome> outcome;
  {
    const Span span(SpanId::kJitExecute);
    outcome.emplace(orchestrator_->ExecuteBuffered(*session_, request));
  }
  {
    const Span span(SpanId::kCoreCommit);
    PRONGHORN_RETURN_IF_ERROR(orchestrator_->CommitObservations(*outcome));
  }
  {
    const Span span(SpanId::kCoreCheckpoint);
    PRONGHORN_RETURN_IF_ERROR(orchestrator_->MaybeCheckpoint(*session_, *outcome));
  }
  return *std::move(outcome);
}

SessionEnd SplitLocalBackend::EndSession() {
  SessionEnd end;
  if (session_.has_value()) {
    end.memory_mb = session_->process.MemoryFootprintMb();
    end.requests_executed = session_->process.requests_executed();
    end.retired = true;
    session_.reset();
  }
  return end;
}

Result<SessionView> TimedServiceBackend::StartWorker() {
  const Span span(SpanId::kServiceStart, /*subtract_detached=*/true);
  return inner_.StartWorker();
}

Result<RequestOutcome> TimedServiceBackend::ServeRequest(const FunctionRequest& request) {
  const Span span(SpanId::kServiceServe, /*subtract_detached=*/true);
  return inner_.ServeRequest(request);
}

SessionEnd TimedServiceBackend::EndSession() {
  const Span span(SpanId::kServiceEnd, /*subtract_detached=*/true);
  return inner_.EndSession();
}

}  // namespace pronghorn::perfbench
