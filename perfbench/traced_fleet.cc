#include "perfbench/traced_fleet.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/tracing.h"
#include "src/checkpoint/criu_like_engine.h"
#include "src/core/stop_condition_policy.h"
#include "src/platform/sim_core.h"
#include "src/platform/sim_environment.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/workloads/input_model.h"

namespace pronghorn::perfbench {

namespace {

// One deployment's environment, wired as SimEnvironment::AddDeployment wires
// a ClusterSimulation's single deployment. Heap-allocated and never moved:
// orchestrators, slots and service bindings hold pointers into it.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ~Deployment() {
    // Release the service bindings before the orchestrators they point at.
    if (service != nullptr && service->running() && !bound_name.empty()) {
      (void)service->Unbind(bound_name);
    }
  }

  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore object_store;
  std::unique_ptr<SnapshotStore> base_store;
  std::unique_ptr<TimedSnapshotStore> timed_store;
  std::unique_ptr<TimedKvDatabase> timed_db;
  std::unique_ptr<EvictionModel> eviction;
  std::unique_ptr<StopConditionPolicy> exploit_policy;
  std::vector<std::unique_ptr<TimedPolicy>> timed_policies;
  std::unique_ptr<CheckpointEngine> engine;
  TimedEngine* timed_engine = nullptr;
  std::unique_ptr<PolicyStateStore> state_store;
  std::unique_ptr<InputModel> input_model;
  Rng client_rng{0};
  std::vector<SimCore> slots;
  std::vector<std::unique_ptr<ServiceClient>> clients;
  std::vector<std::unique_ptr<WorkerBackend>> backends;
  OrchestratorService* service = nullptr;
  std::string bound_name;
};

Result<std::unique_ptr<Deployment>> Deploy(const WorkloadRegistry& registry,
                                           const SimFunctionSpec& spec,
                                           const SimOptions& options,
                                           Decorations decorations,
                                           OrchestratorService* service) {
  const Span span(SpanId::kPlatformDeploy);
  // FleetSimulation::RunShard: every substream keys off (fleet seed, name).
  const uint64_t sub_seed = SimEnvironment::DeploymentSeed(options.seed, spec.name);
  const WorkloadProfile& profile = *spec.profile;
  const OrchestrationPolicy& policy = *spec.policy;

  auto d = std::make_unique<Deployment>();
  PRONGHORN_ASSIGN_OR_RETURN(d->eviction, options.eviction.Instantiate(sub_seed));
  if (options.store.kind == SnapshotStoreOptions::Kind::kDedup) {
    d->base_store = std::make_unique<DedupSnapshotStore>(options.store, &d->clock);
  } else {
    d->base_store = std::make_unique<FlatSnapshotStore>(d->object_store);
  }
  SnapshotStore* store = d->base_store.get();
  if (decorations.store) {
    d->timed_store = std::make_unique<TimedSnapshotStore>(*store);
    store = d->timed_store.get();
  }
  KvDatabase* db = &d->db;
  if (decorations.kv) {
    d->timed_db = std::make_unique<TimedKvDatabase>(*db);
    db = d->timed_db.get();
  }

  // ClusterSimulation registers its deployment under the profile name.
  const std::string& name = profile.name;
  d->exploit_policy = std::make_unique<StopConditionPolicy>(policy, /*explore_requests=*/0);
  d->engine = std::make_unique<CriuLikeEngine>(HashCombine(sub_seed, 0xe1ULL));
  if (decorations.engine) {
    auto timed = std::make_unique<TimedEngine>(std::move(d->engine));
    d->timed_engine = timed.get();
    d->engine = std::move(timed);
  }
  d->state_store = std::make_unique<PolicyStateStore>(
      *db, name, policy.config(), &d->clock, StateStoreRetryPolicy{}, options.state_cache);
  d->input_model = std::make_unique<InputModel>(profile, options.input_noise);
  d->client_rng = Rng(HashCombine(sub_seed, 0xc1ULL));

  const uint32_t slot_count = options.worker_slots;
  const uint32_t exploring_slots = std::min(options.exploring_slots, slot_count);
  d->slots.reserve(slot_count);
  for (uint32_t i = 0; i < slot_count; ++i) {
    const bool exploring = i < exploring_slots;
    const OrchestrationPolicy* slot_policy =
        exploring ? &policy : static_cast<const OrchestrationPolicy*>(d->exploit_policy.get());
    if (decorations.policy) {
      d->timed_policies.push_back(std::make_unique<TimedPolicy>(*slot_policy));
      slot_policy = d->timed_policies.back().get();
    }
    const uint64_t slot_seed = i == 0 ? HashCombine(sub_seed, 0x0eULL)
                                      : HashCombine(sub_seed, HashCombine(0x0eULL, i));
    auto orchestrator = std::make_unique<Orchestrator>(
        profile, registry, *slot_policy, *d->engine, *store, *d->state_store, d->clock,
        slot_seed, options.costs, options.recovery);
    d->slots.emplace_back(std::move(orchestrator), d->eviction.get(), &d->clock,
                          options.lifecycle, exploring);
  }

  if (service != nullptr) {
    d->service = service;
    for (uint32_t i = 0; i < slot_count; ++i) {
      PRONGHORN_RETURN_IF_ERROR(
          service->Bind(name, i, &d->slots[i].orchestrator(), &d->clock));
      d->bound_name = name;
    }
    for (uint32_t i = 0; i < slot_count; ++i) {
      d->clients.push_back(std::make_unique<ServiceClient>(service, name, i));
      WorkerBackend* backend = d->clients.back().get();
      if (decorations.backend) {
        d->backends.push_back(std::make_unique<TimedServiceBackend>(*backend));
        backend = d->backends.back().get();
      }
      d->slots[i].set_backend(backend);
    }
  } else if (decorations.backend) {
    for (SimCore& slot : d->slots) {
      d->backends.push_back(std::make_unique<SplitLocalBackend>(&slot.orchestrator()));
      slot.set_backend(d->backends.back().get());
    }
  }
  return d;
}

// SimEnvironment::RunClosedLoop + RetireAllWorkers + TakeFlatReport for one
// deployment.
Result<ClusterReport> RunClosedLoop(Deployment& d, uint64_t requests) {
  ClusterReport report;
  uint64_t next_request_id = 1;
  for (uint64_t i = 0; i < requests; ++i) {
    SimCore* best = nullptr;
    for (SimCore& slot : d.slots) {
      if (best == nullptr || slot.free_at() < best->free_at()) {
        best = &slot;
      }
    }
    FunctionRequest request;
    request.id = next_request_id++;
    request.input_scale = d.input_model->NextScale(d.client_rng);
    {
      const Span span(SpanId::kPlatformServe);
      PRONGHORN_RETURN_IF_ERROR(best->Serve(request, best->dispatch_at(), report));
    }
    const Span span(SpanId::kPlatformEvict);
    best->MaybeEvict(i + 1 < requests, best->last_completion(), report);
  }
  {
    const Span span(SpanId::kPlatformEvict);
    for (SimCore& slot : d.slots) {
      slot.RetireWorker(d.clock.now(), report);
    }
  }
  report.end_time = d.clock.now();
  for (SimCore& slot : d.slots) {
    MergeOverheads(report.overheads, slot.orchestrator().overheads());
    AccumulateRecovery(report.faults, slot.orchestrator().recovery_stats());
  }
  AccumulateStateStore(report.faults, d.state_store->stats());
  report.object_store = d.base_store->accounting();
  report.database = d.db.accounting();
  return report;
}

void AddPhysical(PhysicalAccounting& into, const PhysicalAccounting& from) {
  into.bytes_stored += from.bytes_stored;
  into.peak_bytes += from.peak_bytes;
  into.flat_bytes_stored += from.flat_bytes_stored;
  into.peak_flat_bytes += from.peak_flat_bytes;
  into.chunks_fetched += from.chunks_fetched;
  into.chunks_prefetched += from.chunks_prefetched;
  into.cache_hits += from.cache_hits;
}

}  // namespace

ServiceConfig ServiceConfigFor(const SimOptions& options) {
  ServiceConfig config;
  config.shards = options.service.shards;
  config.queue_capacity = options.service.queue_capacity;
  config.max_batch = options.service.max_batch;
  config.flush_interval = options.service.flush_interval;
  config.journal_dir = options.service.journal_dir;
  config.shed_deadline_ms = options.service.shed_deadline_ms;
  config.faults = options.faults.service;
  config.obs = options.obs;
  return config;
}

Result<TracedFleet> RunTracedFleet(const WorkloadRegistry& registry,
                                   std::span<const SimFunctionSpec> functions,
                                   const SimOptions& options, Decorations decorations) {
  if (options.faults.Active() || options.obs != nullptr ||
      options.sim_checkpoint.enabled() || options.retention.mode != ReportRetention::kAll ||
      options.engine_kind != EngineKind::kCriuLike) {
    return InvalidArgumentError(
        "traced fleet supports fault-free, keep-all, CRIU-engine runs only");
  }
  std::unique_ptr<OrchestratorService> service;
  if (options.service.enabled) {
    service = std::make_unique<OrchestratorService>(ServiceConfigFor(options));
  }

  TracedFleet out;
  StreamingAccumulator accumulator(options.retention);
  for (const SimFunctionSpec& spec : functions) {
    PRONGHORN_ASSIGN_OR_RETURN(
        std::unique_ptr<Deployment> d,
        Deploy(registry, spec, options, decorations, service.get()));
    Result<ClusterReport> report = RunClosedLoop(*d, spec.requests);
    if (!report.ok()) {
      return Status(report.status().code(),
                    "deployment '" + spec.name + "': " + report.status().message());
    }
    out.state_cache_hits += d->state_store->cache_stats().hits;
    out.state_cache_misses += d->state_store->cache_stats().misses;
    out.cas_attempts += report->database.cas_attempts;
    out.cas_conflicts += report->database.cas_conflicts;
    if (d->timed_engine != nullptr) {
      out.image_bytes += d->timed_engine->image_bytes();
      out.images += d->timed_engine->images();
    }
    AddPhysical(out.physical, report->object_store.physical);
    out.deployments += 1;
    const Span span(SpanId::kPlatformFold);
    accumulator.Fold(spec.name, *std::move(report));
  }
  {
    const Span span(SpanId::kPlatformFold);
    out.merged = accumulator.Take();
  }
  if (service != nullptr) {
    service->Shutdown();
    out.service = service->stats();
  }
  return out;
}

}  // namespace pronghorn::perfbench
