#include "src/platform/simulate.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/platform/report_io.h"
#include "src/platform/sim_checkpoint.h"
#include "src/platform/sim_environment.h"
#include "src/service/orchestrator_service.h"

namespace pronghorn {

namespace {

Status ValidateSpecs(SimTopology topology,
                     std::span<const SimFunctionSpec> functions) {
  if (functions.empty()) {
    return InvalidArgumentError("Simulate() needs at least one function");
  }
  if (topology == SimTopology::kSingle && functions.size() != 1) {
    return InvalidArgumentError("kSingle topology takes exactly one function");
  }
  for (size_t i = 0; i < functions.size(); ++i) {
    const SimFunctionSpec& spec = functions[i];
    if (spec.name.empty()) {
      return InvalidArgumentError("function name must be non-empty");
    }
    if (spec.profile == nullptr || spec.policy == nullptr) {
      return InvalidArgumentError("function '" + spec.name +
                                  "' needs a profile and a policy");
    }
    if (spec.requests == 0) {
      return InvalidArgumentError("function '" + spec.name +
                                  "' needs a positive request count");
    }
    for (size_t j = 0; j < i; ++j) {
      if (functions[j].name == spec.name) {
        return AlreadyExistsError("duplicate function '" + spec.name + "'");
      }
    }
  }
  return OkStatus();
}

// One deployment in a private environment whose every substream keys off
// options.seed: the kSingle run itself, and one kFleet shard (whose options
// carry the deployment's sub-seed). The policy state and snapshots stay
// scoped by the profile name — their keys are digest-covered bytes — while
// the deployment (and so its service binding) goes by the unique spec name.
Result<SimulationReport> RunIsolated(const WorkloadRegistry& registry,
                                     const SimFunctionSpec& spec,
                                     const SimOptions& options) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<EvictionModel> eviction,
                             options.eviction.Instantiate(options.seed));
  SimEnvironment env(registry, options);
  PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(
      spec.name, *spec.profile, *spec.policy, *eviction, options.worker_slots,
      options.exploring_slots, /*sub_seed=*/options.seed, spec.profile->name));
  PRONGHORN_RETURN_IF_ERROR(env.RunClosedLoop(spec.requests));
  env.RetireAllWorkers();
  return env.TakeFlatReport();
}

Result<SimReport> SimulateSingle(const WorkloadRegistry& registry,
                                 const SimFunctionSpec& spec,
                                 const SimOptions& options) {
  PRONGHORN_ASSIGN_OR_RETURN(SimulationReport flat,
                             RunIsolated(registry, spec, options));
  SimReport out;
  static_cast<ReportCore&>(out) = static_cast<const ReportCore&>(flat);
  out.AddFunction(spec.name, std::move(flat));
  return out;
}

Result<SimReport> SimulatePlatform(const WorkloadRegistry& registry,
                                   std::span<const SimFunctionSpec> functions,
                                   const SimOptions& options) {
  PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<EvictionModel> eviction,
                             options.eviction.Instantiate(options.seed));
  SimEnvironment env(registry, options);
  uint64_t total_requests = 0;
  for (const SimFunctionSpec& spec : functions) {
    PRONGHORN_RETURN_IF_ERROR(env.AddDeployment(
        spec.name, *spec.profile, *spec.policy, *eviction, /*worker_slots=*/1,
        /*exploring_slots=*/1,
        SimEnvironment::DeploymentSeed(options.seed, spec.name)));
    total_requests += spec.requests;
  }
  PRONGHORN_RETURN_IF_ERROR(env.RunClosedLoop(total_requests));
  env.RetireAllWorkers();
  return env.TakeReport();
}

// kFleet: one isolated environment per deployment, sharded across a thread
// pool and folded into a StreamingAccumulator the moment each completes.
//
// Determinism: every shard's substreams key off (fleet seed, deployment
// name) — never the thread or shard index — and the fold's digest and
// aggregates are order-insensitive, so the report is bit-identical at any
// thread count. Peak memory is O(shards in flight + retained-K), never
// O(functions x requests).
Result<SimReport> SimulateFleet(const WorkloadRegistry& registry,
                                std::span<const SimFunctionSpec> functions,
                                const SimOptions& options) {
  // Service mode: every shard is a client of one shared live service for the
  // whole run, bound under its unique deployment name. Each deployment still
  // evolves independently — its requests are serialized on its service shard
  // and issued from one client task.
  SimOptions base_options = options;
  std::unique_ptr<OrchestratorService> shared_service;
  if (options.service.enabled && options.service.instance == nullptr) {
    shared_service = std::make_unique<OrchestratorService>(
        SimEnvironment::ServiceConfigFor(options));
    base_options.service.instance = shared_service.get();
  }

  StreamingAccumulator accumulator(options.retention);

  // Resume: load the newest valid checkpoint and skip what it covers.
  const SimCheckpointOptions& ckpt = options.sim_checkpoint;
  const uint64_t fingerprint =
      ckpt.enabled() ? ExperimentFingerprint(SimTopology::kFleet, functions, options)
                     : 0;
  if (ckpt.enabled() && ckpt.resume) {
    auto payload =
        ReadSimCheckpointFile(FleetCheckpointer::FilePath(ckpt.dir), fingerprint);
    if (payload.ok()) {
      ByteReader reader(*payload);
      PRONGHORN_RETURN_IF_ERROR(accumulator.RestoreState(reader));
      if (!reader.AtEnd()) {
        return DataLossError("trailing bytes after checkpointed accumulator state");
      }
    } else if (payload.status().code() != StatusCode::kNotFound) {
      // A corrupt or mismatched checkpoint must fail loudly, not silently
      // restart the experiment from scratch.
      return payload.status();
    }
  }
  std::optional<FleetCheckpointer> checkpointer;
  if (ckpt.enabled()) {
    checkpointer.emplace(ckpt, fingerprint, accumulator);
  }

  // One task per deployment; the pool's work-stealing balances wildly uneven
  // shard runtimes. Failures are recorded per deployment and reported
  // canonically below. Each slot sits on its own cache line so concurrent
  // shard completions never false-share one.
  struct alignas(kCacheLineBytes) ShardSlot {
    std::optional<Status> failure;
  };
  std::vector<ShardSlot> slots(functions.size());
  const auto run_one = [&](size_t i) {
    const SimFunctionSpec& spec = functions[i];
    if (accumulator.Contains(spec.name)) {
      return;  // Covered by the resumed checkpoint.
    }
    SimOptions shard_options = base_options;
    shard_options.seed = SimEnvironment::DeploymentSeed(options.seed, spec.name);
    Result<SimulationReport> shard = RunIsolated(registry, spec, shard_options);
    if (!shard.ok()) {
      slots[i].failure = shard.status();
      return;
    }
    accumulator.Fold(spec.name, *std::move(shard));
    if (checkpointer.has_value()) {
      checkpointer->OnFold();
    }
  };
  // --threads is a parallelism cap, not a demand: shards are CPU-bound, so
  // workers beyond the hardware thread count only add context switches. The
  // caller-assist ParallelFor makes the calling thread one of the execution
  // streams, so `workers` counts it.
  const uint32_t workers = ThreadPool::EffectiveParallelism(options.threads);
  if (workers <= 1 || functions.size() == 1) {
    for (size_t i = 0; i < functions.size(); ++i) {
      run_one(i);
    }
  } else {
    ThreadPool pool(workers - 1);  // The calling thread participates.
    pool.ParallelFor(functions.size(), run_one);
  }

  // Canonical error report: the first failure in deployment-name order,
  // whatever order the shards actually failed in.
  std::vector<size_t> order(functions.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return functions[a].name < functions[b].name;
  });
  for (const size_t index : order) {
    if (slots[index].failure.has_value()) {
      // Persist progress first: the failed deployment can be retried with
      // --resume without re-running its finished peers.
      if (checkpointer.has_value()) {
        (void)checkpointer->Finish();
      }
      return Status(slots[index].failure->code(),
                    "deployment '" + functions[index].name +
                        "': " + slots[index].failure->message());
    }
  }
  if (checkpointer.has_value()) {
    PRONGHORN_RETURN_IF_ERROR(checkpointer->Finish());
  }

  // Final assembly in canonical (name) order. The aggregates come from the
  // fold, which saw every function even when the retained bodies were
  // decimated by a bounded retention mode.
  StreamingAccumulator::Merged merged = accumulator.Take();
  SimReport out;
  static_cast<ReportCore&>(out) = merged.core;
  out.worker_lifetimes = merged.worker_lifetimes;
  out.checkpoints = merged.checkpoints;
  out.restores = merged.restores;
  out.cold_starts = merged.cold_starts;
  out.retention = merged.retention;
  out.functions_total = merged.functions_total;
  out.invocations_total = merged.invocations_total;
  out.latency_hist = std::move(merged.latency_hist);
  out.streaming_digest = merged.digest;
  out.per_function.reserve(merged.retained.size());
  for (auto& [name, report] : merged.retained) {
    if (merged.retention == ReportRetention::kAll) {
      for (const RequestRecord& record : report.records) {
        out.latency.Add(static_cast<double>(record.latency.ToMicros()));
      }
    }
    out.per_function.push_back(SimFunctionResult{name, std::move(report)});
  }
  return out;
}

// Whole-run checkpoint payload for kSingle/kPlatform: the retained
// per-function reports (name order) followed by the shared core. The merged
// latency views and counters are rebuilt through AddFunction on restore, so
// they never need a serialization of their own.
std::vector<uint8_t> EncodeWholeRunPayload(const SimReport& report) {
  ByteWriter writer;
  writer.WriteVarint(report.per_function.size());
  for (const SimFunctionResult& result : report.per_function) {
    writer.WriteString(result.function);
    SerializeClusterReport(result.report, writer);
  }
  SerializeReportCore(report, writer);
  return writer.data();
}

Result<SimReport> DecodeWholeRunPayload(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  PRONGHORN_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
  SimReport out;
  for (uint64_t i = 0; i < count; ++i) {
    PRONGHORN_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    PRONGHORN_ASSIGN_OR_RETURN(ClusterReport report,
                               DeserializeClusterReport(reader));
    out.AddFunction(std::move(name), std::move(report));
  }
  PRONGHORN_RETURN_IF_ERROR(DeserializeReportCore(reader, out));
  if (!reader.AtEnd()) {
    return DataLossError("trailing bytes after checkpointed simulation report");
  }
  out.streaming_digest = out.Digest();
  return out;
}

// kSingle/kPlatform under whole-run checkpointing: a finished run is served
// from the stored frame; otherwise the run goes ahead and its report is
// written when it completes.
Result<SimReport> SimulateWholeRun(const WorkloadRegistry& registry,
                                   SimTopology topology,
                                   std::span<const SimFunctionSpec> functions,
                                   const SimOptions& options) {
  const SimCheckpointOptions& ckpt = options.sim_checkpoint;
  uint64_t fingerprint = 0;
  if (ckpt.enabled()) {
    fingerprint = ExperimentFingerprint(topology, functions, options);
    if (ckpt.resume) {
      auto payload =
          ReadSimCheckpointFile(WholeRunCheckpointPath(ckpt.dir), fingerprint);
      if (payload.ok()) {
        return DecodeWholeRunPayload(*payload);
      }
      if (payload.status().code() != StatusCode::kNotFound) {
        // A corrupt or mismatched checkpoint must fail loudly, not silently
        // restart the experiment from scratch.
        return payload.status();
      }
    }
  }
  Result<SimReport> report = topology == SimTopology::kSingle
                                 ? SimulateSingle(registry, functions.front(), options)
                                 : SimulatePlatform(registry, functions, options);
  if (!report.ok()) {
    return report;
  }
  report->streaming_digest = report->Digest();
  if (ckpt.enabled()) {
    PRONGHORN_RETURN_IF_ERROR(
        WriteSimCheckpointFile(WholeRunCheckpointPath(ckpt.dir), fingerprint,
                               /*progress=*/report->functions_total,
                               EncodeWholeRunPayload(*report)));
  }
  return report;
}

}  // namespace

uint64_t ExperimentFingerprint(SimTopology topology,
                               std::span<const SimFunctionSpec> functions,
                               const SimOptions& options) {
  SimFingerprint fingerprint;
  fingerprint.seed = options.seed;
  fingerprint.topology = static_cast<uint32_t>(topology);
  for (const SimFunctionSpec& spec : functions) {
    fingerprint.AddFunction(spec.name, spec.requests, options.worker_slots,
                            options.exploring_slots);
  }
  fingerprint.AddOptions(options);
  return fingerprint.value();
}

Result<SimReport> Simulate(const WorkloadRegistry& registry, SimTopology topology,
                           std::span<const SimFunctionSpec> functions,
                           const SimOptions& options, ObsSink* obs) {
  PRONGHORN_RETURN_IF_ERROR(ValidateSpecs(topology, functions));
  SimOptions effective = options;
  if (obs != nullptr) {
    effective.obs = obs;
  }
  Result<SimReport> report =
      topology == SimTopology::kFleet
          ? SimulateFleet(registry, functions, effective)
          : SimulateWholeRun(registry, topology, functions, effective);
  if (report.ok() && effective.obs != nullptr) {
    report->metrics = effective.obs->SnapshotMetrics();
    report->trace = effective.obs->trace_recorder();
  }
  return report;
}

}  // namespace pronghorn
