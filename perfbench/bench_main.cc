// Repository benchmark executable. run.py builds it and calls one mode per run:
//
//   perfbench run      --workload W --seed N --seconds S [--requests R]
//   perfbench trace    --workload W --seed N --seconds S [--requests R]
//   perfbench setup    --workload W --seed N [--requests R]
//   perfbench selftest [--requests R]
//
// `run` measures the end-to-end metrics through the public Simulate(kFleet)
// surface with tracing off; `trace` re-runs the same fleet through the
// decorated rebuild in traced_fleet.h and reports per-layer metrics; `setup`
// stops right before the first Simulate call (run.py times it as a whole
// process); `selftest` checks the decorators and the failure accounting at
// tiny sizes. Human-readable lines go to stdout; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
//
// The workloads (see README.md for why each exists):
//   churn    52 functions, eviction every request, flat store, nproc threads
//   warm     52 functions, eviction every 64 requests, flat store, nproc threads
//   service  26 functions, service mode (2 shards), dedup+CDC+lazy store,
//            eviction every 4 requests, 2 threads

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/traced_fleet.h"
#include "perfbench/tracing.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/core/request_centric_policy.h"
#include "src/platform/simulate.h"
#include "src/service/orchestrator_service.h"

namespace pronghorn::perfbench {
namespace {

struct Workload {
  std::string_view name;
  uint32_t per_profile;   // Deployments per evaluation profile (13 profiles).
  uint64_t eviction_k;    // Evict after every k requests of a worker lifetime.
  bool service;           // Service mode with 2 shards.
  uint32_t threads;       // Client threads; 0 = one per hardware thread.
  bool dedup;             // Dedup store with CDC chunking and lazy restore.
  uint64_t requests;      // Closed-loop requests per function.
};

// Request counts put at least 100 samples beyond p99.9 in every fleet (>= 100k
// requests) and make one Simulate call last a few tenths of a second on a
// 4-core host, so a 30 s run takes the median over many calls.
constexpr Workload kWorkloads[] = {
    {"churn", 4, 1, false, 0, false, 2000},
    {"warm", 4, 64, false, 0, false, 6000},
    {"service", 2, 4, true, 2, true, 4000},
};

// A run cycles through this many fleet instances, each simulated from its own
// seed derived from --seed. The simulated-time metrics come from all of them
// merged, which averages out most of the seed-to-seed variation of one fleet.
constexpr size_t kInstances = 8;

uint64_t InstanceSeed(uint64_t seed, size_t instance) { return HashCombine(seed, instance); }

struct Args {
  std::string mode;
  std::string workload = "churn";
  uint64_t seed = 1;
  double seconds = 30.0;
  uint64_t requests = 0;  // 0 = the workload's own count.
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- Fleet construction -----------------------------------------------------

struct Fleet {
  const Workload* workload = nullptr;
  std::vector<std::unique_ptr<RequestCentricPolicy>> policies;
  std::vector<SimFunctionSpec> specs;
  SimOptions options;  // options.seed is instance 0's seed.
  uint64_t seed = 1;   // The benchmark's --seed.
  uint32_t threads = 1;  // Requested client threads (resolved from 0).
  uint64_t requests_total = 0;
};

// The same fleet `pronghorn_sim --fleet N --policy request-centric` builds:
// deployments cycle through the evaluation set under unique names, each with
// its own request-centric policy (beta = eviction k, C = 12, W per family).
Result<Fleet> BuildFleet(const Workload& workload, uint64_t seed, uint64_t requests) {
  Fleet fleet;
  fleet.workload = &workload;
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  const size_t count = workload.per_profile * evaluation.size();
  for (size_t i = 0; i < count; ++i) {
    const WorkloadProfile& profile = *evaluation[i % evaluation.size()];
    PolicyConfig config;
    config.beta = static_cast<uint32_t>(workload.eviction_k);
    config.pool_capacity = 12;
    config.max_checkpoint_request = profile.family == RuntimeFamily::kJvm ? 200 : 100;
    PRONGHORN_RETURN_IF_ERROR(config.Validate());
    PRONGHORN_ASSIGN_OR_RETURN(RequestCentricPolicy policy,
                               RequestCentricPolicy::Create(config));
    fleet.policies.push_back(std::make_unique<RequestCentricPolicy>(std::move(policy)));

    char name[64];
    std::snprintf(name, sizeof(name), "f%04zu-%s", i, profile.name.c_str());
    SimFunctionSpec spec;
    spec.name = name;
    spec.profile = &profile;
    spec.policy = fleet.policies.back().get();
    spec.requests = requests;
    fleet.specs.push_back(std::move(spec));
    fleet.requests_total += requests;
  }
  SimOptions& options = fleet.options;
  fleet.seed = seed;
  options.seed = InstanceSeed(seed, 0);
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = workload.eviction_k;
  if (workload.dedup) {
    options.store.kind = SnapshotStoreOptions::Kind::kDedup;
    options.store.chunker.cdc = true;
    options.store.lazy_restore = true;
  }
  if (workload.service) {
    options.service.enabled = true;
    options.service.shards = 2;
  }
  fleet.threads = workload.threads != 0 ? workload.threads
                                        : std::max(1u, std::thread::hardware_concurrency());
  return fleet;
}

// --- Untraced runs through Simulate() -----------------------------------------

struct SimRun {
  Result<SimReport> report = FailedPreconditionError("not run");
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ServiceStatsSnapshot service;
};

// One Simulate(kFleet) call of fleet instance `instance` at `threads`. In
// service mode the benchmark owns the shared service (as FleetSimulation
// would) so its counters stay readable; starting and stopping it is inside
// the timed interval.
SimRun RunSimulate(const Fleet& fleet, uint32_t threads, size_t instance = 0) {
  SimRun run;
  SimOptions options = fleet.options;
  options.seed = InstanceSeed(fleet.seed, instance);
  options.threads = threads;
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  std::unique_ptr<OrchestratorService> service;
  if (options.service.enabled) {
    service = std::make_unique<OrchestratorService>(ServiceConfigFor(options));
    options.service.instance = service.get();
  }
  run.report = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, fleet.specs,
                        options);
  if (service != nullptr) {
    service->Shutdown();
    run.service = service->stats();
  }
  run.wall_s = NowSeconds() - t0;
  run.cpu_s = CpuSeconds() - cpu0;
  return run;
}

// Checks a finished report against what the fleet must produce: every
// request served once, lifecycle counters consistent per function.
Status CheckReport(const Fleet& fleet, const SimReport& report) {
  if (report.functions_total != fleet.specs.size() ||
      report.per_function.size() != fleet.specs.size()) {
    return InternalError("report covers " + std::to_string(report.functions_total) +
                         " functions, fleet has " + std::to_string(fleet.specs.size()));
  }
  if (report.invocations_total != fleet.requests_total ||
      report.latency_hist.count() != fleet.requests_total) {
    return InternalError("report has " + std::to_string(report.invocations_total) +
                         " invocations, expected " + std::to_string(fleet.requests_total));
  }
  for (const SimFunctionResult& result : report.per_function) {
    const SimulationReport& r = result.report;
    const uint64_t requests = fleet.specs.front().requests;
    if (r.records.size() != requests) {
      return InternalError(result.function + " served " +
                           std::to_string(r.records.size()) + " requests");
    }
    if (r.restores + r.cold_starts != r.worker_lifetimes) {
      return InternalError(result.function + ": restores + cold starts != lifetimes");
    }
    const uint64_t k = fleet.workload->eviction_k;
    if (r.worker_lifetimes < (requests + k - 1) / k) {
      return InternalError(result.function + ": fewer worker lifetimes than evictions");
    }
  }
  return OkStatus();
}

// The traced (or any second) outcome must match the untraced reference in
// every simulated quantity: digest, latency histogram, and per-function
// requests, restores, checkpoints and cold starts.
Status CompareOutcome(const SimReport& reference, const StreamingAccumulator::Merged& other) {
  if (other.functions_total != reference.functions_total ||
      other.retained.size() != reference.per_function.size()) {
    return InternalError("function count differs");
  }
  for (const SimFunctionResult& result : reference.per_function) {
    const auto it = other.retained.find(result.function);
    if (it == other.retained.end()) {
      return InternalError(result.function + " missing");
    }
    const SimulationReport& a = result.report;
    const SimulationReport& b = it->second;
    if (a.records.size() != b.records.size() || a.restores != b.restores ||
        a.checkpoints != b.checkpoints || a.cold_starts != b.cold_starts) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s: requests/restores/checkpoints/cold %zu/%" PRIu64 "/%" PRIu64
                    "/%" PRIu64 " vs %zu/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                    result.function.c_str(), a.records.size(), a.restores, a.checkpoints,
                    a.cold_starts, b.records.size(), b.restores, b.checkpoints,
                    b.cold_starts);
      return InternalError(line);
    }
  }
  if (!(other.latency_hist == reference.latency_hist)) {
    return InternalError("latency histogram differs");
  }
  if (other.digest != reference.Digest()) {
    char line[96];
    std::snprintf(line, sizeof(line), "fleet digest %08x vs %08x", other.digest,
                  reference.Digest());
    return InternalError(line);
  }
  return OkStatus();
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintProvenance(const Fleet& fleet) {
  const uint32_t effective = ThreadPool::EffectiveParallelism(fleet.threads);
  std::printf("provenance: build_type=%s compiler=%s flags=[%s] nproc=%u "
              "threads_requested=%u effective_workers=%u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              std::thread::hardware_concurrency(), fleet.threads, effective);
  if (effective < fleet.threads) {
    std::printf("WARNING: only %u effective workers for %u requested threads; "
                "this run is not as parallel as its workload says\n",
                effective, fleet.threads);
  }
  std::printf("workload: %s functions=%zu requests_per_function=%" PRIu64
              " eviction=%" PRIu64 " store=%s service=%s seed=%" PRIu64
              " instances=%zu\n",
              std::string(fleet.workload->name).c_str(), fleet.specs.size(),
              fleet.specs.front().requests, fleet.workload->eviction_k,
              fleet.workload->dedup ? "dedup+cdc+lazy" : "flat",
              fleet.workload->service ? "2-shards" : "off", fleet.seed, kInstances);
}

void PrintFailure(const char* what, const Status& status) {
  std::printf("FAILED %s: %s\n", what, status.ToString().c_str());
}

// --- run: end-to-end metrics ---------------------------------------------------

// A serial run of instance 0 first (the determinism reference and warm-up),
// then timed Simulate calls at the workload's thread count, cycling through
// the fleet instances, until `seconds` have passed and every instance ran.
// Each instance must reproduce its first digest on every repeat, and instance
// 0 the serial one. A call whose Simulate fails counts all of its requests as
// failed and ends the run.
RunResult MeasureEndToEnd(const Fleet& fleet, double seconds) {
  RunResult result;
  SimRun reference = RunSimulate(fleet, 1);
  std::vector<double> rps;
  std::vector<double> cpu_us;
  double failed_cpu_us = 0.0;
  uint64_t sheds = 0;
  std::vector<std::optional<uint32_t>> digests(kInstances);
  LatencyHistogram hist;  // Every instance merged.
  if (!reference.report.ok()) {
    PrintFailure("reference run (threads=1)", reference.report.status());
    result.correct = false;
    result.attempted = result.failed = fleet.requests_total;
  } else {
    if (const Status checked = CheckReport(fleet, *reference.report); !checked.ok()) {
      PrintFailure("reference check", checked);
      result.correct = false;
    }
    digests[0] = reference.report->Digest();
    std::printf("reference (threads=1): digest=%08x lifetimes=%" PRIu64
                " restores=%" PRIu64 " checkpoints=%" PRIu64 " cold=%" PRIu64 "\n",
                *digests[0], reference.report->worker_lifetimes, reference.report->restores,
                reference.report->checkpoints, reference.report->cold_starts);
    hist.Merge(reference.report->latency_hist);
    const double start = NowSeconds();
    for (size_t call = 0; call < kInstances || NowSeconds() - start < seconds; ++call) {
      const size_t instance = call % kInstances;
      SimRun run = RunSimulate(fleet, fleet.threads, instance);
      result.attempted += fleet.requests_total;
      sheds += run.service.sheds;
      if (!run.report.ok()) {
        PrintFailure("Simulate", run.report.status());
        result.failed += fleet.requests_total;
        result.correct = false;
        failed_cpu_us = run.cpu_s * 1e6 / static_cast<double>(fleet.requests_total);
        break;
      }
      if (const Status checked = CheckReport(fleet, *run.report); !checked.ok()) {
        PrintFailure("report check", checked);
        result.correct = false;
      }
      const uint32_t digest = run.report->Digest();
      if (!digests[instance].has_value()) {
        digests[instance] = digest;
        hist.Merge(run.report->latency_hist);
      } else if (digest != *digests[instance]) {
        std::printf("FAILED determinism: instance %zu at threads=%u digest %08x != %08x\n",
                    instance, fleet.threads, digest, *digests[instance]);
        result.correct = false;
      }
      rps.push_back(static_cast<double>(fleet.requests_total) / run.wall_s);
      cpu_us.push_back(run.cpu_s * 1e6 / static_cast<double>(fleet.requests_total));
    }
  }

  const double failed_frac =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("failed_frac=%.17g (%" PRIu64 " of %" PRIu64 " requests) calls=%zu "
              "service_sheds=%" PRIu64 "\n",
              failed_frac, result.failed, result.attempted, rps.size(), sheds);
  if (!rps.empty()) {
    std::printf("req_per_s per call: min=%.0f median=%.0f max=%.0f\n",
                *std::min_element(rps.begin(), rps.end()), Median(rps),
                *std::max_element(rps.begin(), rps.end()));
  }
  if (result.failed > 0) {
    hist = LatencyHistogram{};  // No simulated outcome to report.
  }
  const double p999_rank = std::ceil(0.999 * static_cast<double>(hist.count()));
  std::printf("sim latency samples=%" PRIu64 " beyond_p999=%.0f\n", hist.count(),
              static_cast<double>(hist.count()) - p999_rank);
  result.metrics = {
      {"req_per_s", Median(rps), "1/s"},
      {"cpu_us_per_req", result.failed > 0 ? failed_cpu_us : Median(cpu_us), "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_p50_ms", hist.Quantile(50) / 1000.0, "ms"},
      {"sim_p999_ms", hist.Quantile(99.9) / 1000.0, "ms"},
  };
  return result;
}

// --- trace: per-layer metrics ----------------------------------------------------

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

RunResult MeasureLayers(const Fleet& fleet, double seconds) {
  RunResult result;
  Tracer::SetMainThread();

  // The fidelity target: the untraced run at the workload's real thread count.
  SimRun reference = RunSimulate(fleet, fleet.threads);
  result.attempted += fleet.requests_total;
  if (!reference.report.ok()) {
    PrintFailure("untraced reference run", reference.report.status());
    result.failed += fleet.requests_total;
    result.correct = false;
  }

  // Alternate untraced serial runs (the overhead baseline) with traced runs.
  Tracer::Reset();
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double traced_total_s = 0.0;
  std::optional<TracedFleet> traced;
  const double start = NowSeconds();
  do {
    SimRun serial = RunSimulate(fleet, 1);
    result.attempted += fleet.requests_total;
    if (!serial.report.ok()) {
      PrintFailure("untraced serial run", serial.report.status());
      result.failed += fleet.requests_total;
      result.correct = false;
      break;
    }
    untraced_s.push_back(serial.wall_s);
    const double t0 = NowSeconds();
    Result<TracedFleet> run =
        RunTracedFleet(WorkloadRegistry::Default(), fleet.specs, fleet.options);
    const double wall = NowSeconds() - t0;
    result.attempted += fleet.requests_total;
    if (!run.ok()) {
      PrintFailure("traced run", run.status());
      result.failed += fleet.requests_total;
      result.correct = false;
      break;
    }
    if (const Status same = CompareOutcome(*serial.report, run->merged); !same.ok()) {
      PrintFailure("traced vs untraced serial", same);
      result.correct = false;
    }
    traced_s.push_back(wall);
    traced_total_s += wall;
    traced = *std::move(run);
  } while (NowSeconds() - start < seconds);

  if (traced.has_value()) {
    if (reference.report.ok()) {
      const Status fidelity = CompareOutcome(*reference.report, traced->merged);
      if (!fidelity.ok()) {
        PrintFailure("fidelity (traced serial vs untraced threaded)", fidelity);
        result.correct = false;
      } else {
        std::printf("fidelity: traced run reproduces the threads=%u run (digest %08x)\n",
                    fleet.threads, traced->merged.digest);
      }
    } else {
      std::printf("FAILED fidelity: untraced threads=%u run failed, traced serial run "
                  "served every request (digest %08x)\n",
                  fleet.threads, traced->merged.digest);
    }
  }

  const double runs = static_cast<double>(traced_s.size());
  const double requests = runs * static_cast<double>(fleet.requests_total);
  const auto totals = Tracer::Totals();
  double self_total_ns = 0.0;
  for (size_t i = 0; i < kSpanCount; ++i) {
    const std::string name(SpanName(static_cast<SpanId>(i)));
    result.metrics.push_back(
        {name + ".calls", Ratio(static_cast<double>(totals[i].calls), runs), "count"});
    result.metrics.push_back({name + ".self_ns_per_req",
                              Ratio(static_cast<double>(totals[i].self_ns), requests),
                              "ns"});
    self_total_ns += static_cast<double>(totals[i].self_ns);
  }
  TracedFleet empty;
  const TracedFleet& t = traced.has_value() ? *traced : empty;
  const PhysicalAccounting& phys = t.physical;
  const double chunk_reads =
      static_cast<double>(phys.cache_hits + phys.chunks_fetched - phys.chunks_prefetched);
  const double untraced = Median(untraced_s);
  result.metrics.insert(
      result.metrics.end(),
      {
          {"core.hot_start_frac",
           Ratio(static_cast<double>(t.merged.restores),
                 static_cast<double>(t.merged.worker_lifetimes)),
           "ratio"},
          {"core.state_cache_hit_frac",
           Ratio(static_cast<double>(t.state_cache_hits),
                 static_cast<double>(t.state_cache_hits + t.state_cache_misses)),
           "ratio"},
          {"checkpoint.image_bytes",
           Ratio(static_cast<double>(t.image_bytes), static_cast<double>(t.images)), "B"},
          {"store.dedup_ratio",
           phys.peak_bytes == 0 ? 1.0
                                : Ratio(static_cast<double>(phys.peak_flat_bytes),
                                        static_cast<double>(phys.peak_bytes)),
           "ratio"},
          {"store.chunk_cache_hit_frac", Ratio(static_cast<double>(phys.cache_hits), chunk_reads),
           "ratio"},
          {"store.resident_mib_per_deployment",
           Ratio(static_cast<double>(phys.peak_bytes) / (1024.0 * 1024.0),
                 static_cast<double>(t.deployments)),
           "MiB"},
          {"kv.cas_conflict_frac",
           Ratio(static_cast<double>(t.cas_conflicts), static_cast<double>(t.cas_attempts)),
           "ratio"},
          // Observations per Database commit: a group commit writes a batch, a
          // synchronous (non-deferred) observation commits alone.
          {"service.batch_fill",
           Ratio(static_cast<double>(t.service.observations_committed),
                 static_cast<double>(t.service.batches_committed + t.service.observations -
                                     t.service.observations_deferred)),
           "obs/commit"},
          {"service.sheds", static_cast<double>(t.service.sheds), "count"},
          {"trace.overhead_pct", untraced > 0.0 ? (Median(traced_s) / untraced - 1.0) * 100.0 : 0.0,
           "%"},
          {"trace.coverage", Ratio(self_total_ns * 1e-9, traced_total_s), "ratio"},
      });
  std::printf("traced runs=%zu untraced_serial_s=%.4f traced_s=%.4f\n", traced_s.size(),
              untraced, Median(traced_s));
  return result;
}

// --- selftest -----------------------------------------------------------------

int SelfTest(uint64_t requests) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  struct Variant {
    const char* name;
    Decorations decorations;
  };
  const Variant variants[] = {
      {"none", Decorations::None()},
      {"policy", {true, false, false, false, false}},
      {"engine", {false, true, false, false, false}},
      {"store", {false, false, true, false, false}},
      {"kv", {false, false, false, true, false}},
      {"backend", {false, false, false, false, true}},
      {"all", Decorations{}},
  };
  for (const Workload& workload : kWorkloads) {
    Result<Fleet> fleet = BuildFleet(workload, /*seed=*/7, requests);
    if (!fleet.ok()) {
      expect(false, std::string(workload.name) + " fleet: " + fleet.status().ToString());
      continue;
    }
    SimRun reference = RunSimulate(*fleet, 1);
    if (!reference.report.ok()) {
      expect(false, std::string(workload.name) + " reference: " +
                        reference.report.status().ToString());
      continue;
    }
    for (const Variant& variant : variants) {
      Result<TracedFleet> traced = RunTracedFleet(
          WorkloadRegistry::Default(), fleet->specs, fleet->options, variant.decorations);
      const Status same = traced.ok() ? CompareOutcome(*reference.report, traced->merged)
                                      : traced.status();
      expect(same.ok(), std::string(workload.name) + " decorated=" + variant.name +
                            " reproduces Simulate" +
                            (same.ok() ? "" : ": " + same.ToString()));
    }
  }
  // A run whose every Simulate call fails must report failed_frac = 1.
  Result<Fleet> broken = BuildFleet(kWorkloads[0], /*seed=*/7, requests);
  if (broken.ok()) {
    broken->options.eviction.k = 0;  // Rejected by the eviction model.
    const RunResult result = MeasureEndToEnd(*broken, 0.0);
    expect(!result.correct && result.attempted > 0 && result.failed == result.attempted,
           "failing run reports failed_frac = 1");
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

// --- main -----------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& args) {
  if (argc < 2) {
    return false;
  }
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--requests") {
      args.requests = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return (argc % 2) == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench run|trace|setup|selftest [--workload W] "
                 "[--seed N] [--seconds S] [--requests R]\n");
    return 2;
  }
  // Repeated per-deployment warnings (e.g. service unbind failures) would
  // flood the output; failures are reported through Status instead.
  SetLogLevel(LogLevel::kError);
  if (args.mode == "selftest") {
    return SelfTest(args.requests != 0 ? args.requests : 24);
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (candidate.name == args.workload) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Result<Fleet> fleet =
      BuildFleet(*workload, args.seed, args.requests != 0 ? args.requests : workload->requests);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
    return 2;
  }
  if (args.mode == "setup") {
    return 0;
  }
  PrintProvenance(*fleet);
  if (args.mode == "run") {
    PrintResult(MeasureEndToEnd(*fleet, args.seconds));
    return 0;
  }
  if (args.mode == "trace") {
    PrintResult(MeasureLayers(*fleet, args.seconds));
    return 0;
  }
  std::fprintf(stderr, "unknown mode '%s'\n", args.mode.c_str());
  return 2;
}

}  // namespace
}  // namespace pronghorn::perfbench

int main(int argc, char** argv) { return pronghorn::perfbench::Main(argc, argv); }
