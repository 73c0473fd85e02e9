// Unified perf-regression suite: the repo's one perf harness. One binary,
// five sections, one versioned JSON. CI runs this and diffs
// BENCH_perf_suite.json against the committed baseline with
// tools/bench_compare.py, so a PR that quietly regresses a hot path by more
// than the per-metric budget fails the perf-regression job.
//
// Sections (every row goes through MeasureMedianSeconds):
//   fleet_wallclock    end-to-end simulator throughput, 1 thread and the
//                      hardware-clamped worker count; also re-proves the
//                      standing invariant that digests are bit-identical at
//                      --threads {1, 2, 8} both clean and under chaos.
//   micro_policy_ops   the vectorized kernels vs their scalar-reference
//                      reimplementations (softmax n=13, weight-fold n=200).
//   service_throughput the live-service mode end to end through Simulate,
//                      plus the deferred group-commit path driven directly
//                      by client threads, journal off and on; every
//                      group-commit run must balance its books.
//   fleet_scale        a bounded-retention many-function fleet (decision
//                      throughput at scale) and streaming trace generation
//                      at 10k functions.
//   storage_dedup      DedupSnapshotStore put, eager restore, and a lazy
//                      restore storm through a chunk cache smaller than the
//                      unique bytes.
//
// Every metric row carries {name, value, unit, direction, spread_pct}:
// `direction` tells the comparator which way regressions point, and
// `spread_pct` is the rep-to-rep median absolute deviation; the comparator
// refuses to gate a row noisier than its budget. The process exits non-zero
// when digests diverge or the group-commit books do not balance.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/exhibit_common.h"
#include "src/checkpoint/criu_like_engine.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/request_centric_policy.h"
#include "src/service/orchestrator_service.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"
#include "src/store/snapshot_store.h"
#include "src/trace/trace_generator.h"

namespace pronghorn::bench {
namespace {

constexpr const char* kJsonPath = "BENCH_perf_suite.json";
constexpr uint64_t kSeed = 42;

// --- Measurement discipline -------------------------------------------------
//
// Every number the suite emits is taken the same way, by one call of
// MeasureMedianSeconds over every timed body the sections register. Warmup
// calls first calibrate how many body calls make one timed rep last at least
// kMinRepSeconds, because a millisecond-long rep measures the scheduler more
// than the code; warmup then goes on at that count for kMinWarmupSeconds in
// all, long enough to pay cold caches, lazy page faults, allocator growth and
// thread start-up (multi-threaded rows were measured still speeding up ~30%
// over their first second). The timed reps then run in kTimedReps rounds,
// each round timing every body once at its calibrated call count. A shared
// host has slow phases lasting seconds: back-to-back reps would all land in
// the same phase, so a row's median would move with whichever phase it hit
// and drift between runs while looking quiet within one. Spread across the
// run, a slow phase costs each body one rep, which the median absorbs. A
// body's result is the median seconds per call over its reps, with the
// median absolute deviation as the noise figure: both are robust to the
// one-sided outliers (a preemption, a page-cache flush) a mean or a min/max
// envelope would chase.

constexpr double kMinRepSeconds = 0.2;
constexpr double kMinWarmupSeconds = 1.0;
constexpr int kTimedReps = 9;

// One value per round (a body's seconds per call, or a speedup row's
// ratios), their median and their median absolute deviation.
struct TimingSample {
  std::vector<double> reps;
  double median = 0.0;
  double mad = 0.0;

  double SpreadPct() const { return median > 0.0 ? 100.0 * mad / median : 0.0; }
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

TimingSample Summarize(std::vector<double> reps) {
  TimingSample sample;
  sample.reps = std::move(reps);
  sample.median = Median(sample.reps);
  std::vector<double> deviations;
  deviations.reserve(sample.reps.size());
  for (const double rep : sample.reps) {
    deviations.push_back(std::abs(rep - sample.median));
  }
  sample.mad = Median(std::move(deviations));
  return sample;
}

using Body = std::function<void()>;

double TimeCalls(uint64_t calls, const Body& body) {
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < calls; ++i) {
    body();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Warms `body` up and returns the calls per timed rep: the count grows (at
// least doubling, aiming 20% past the target) until one rep lasts
// kMinRepSeconds, then warmup goes on at that count until kMinWarmupSeconds.
uint64_t Calibrate(const Body& body) {
  uint64_t calls = 1;
  double warmup_seconds = 0.0;
  for (double seconds = TimeCalls(calls, body);; seconds = TimeCalls(calls, body)) {
    warmup_seconds += seconds;
    if (seconds >= kMinRepSeconds) {
      break;
    }
    const double wanted =
        seconds > 0.0 ? std::ceil(1.2 * kMinRepSeconds * static_cast<double>(calls) / seconds)
                      : static_cast<double>(calls) * 100.0;
    calls = std::clamp(static_cast<uint64_t>(wanted), calls * 2, calls * 100);
  }
  while (warmup_seconds < kMinWarmupSeconds) {
    warmup_seconds += TimeCalls(calls, body);
  }
  return calls;
}

// Seconds per call of each body, which must repeat the same work on every
// call. Calibrates every body, then interleaves their timed reps in rounds.
std::vector<TimingSample> MeasureMedianSeconds(const std::vector<Body>& bodies) {
  std::vector<uint64_t> calls;
  calls.reserve(bodies.size());
  for (const Body& body : bodies) {
    calls.push_back(Calibrate(body));
  }
  std::vector<std::vector<double>> per_call(bodies.size());
  for (int rep = 0; rep < kTimedReps; ++rep) {
    for (size_t i = 0; i < bodies.size(); ++i) {
      per_call[i].push_back(TimeCalls(calls[i], bodies[i]) /
                            static_cast<double>(calls[i]));
    }
  }
  std::vector<TimingSample> samples;
  samples.reserve(bodies.size());
  for (std::vector<double>& reps : per_call) {
    samples.push_back(Summarize(std::move(reps)));
  }
  return samples;
}

// --- Machine metadata -------------------------------------------------------
//
// A committed baseline is only comparable to reruns on the same class of
// machine and the same build, so the JSON stamps both: what it ran on, and
// the commit, build type, compiler and flags it was built from (compile
// definitions set in bench/CMakeLists.txt).

struct MachineInfo {
  uint32_t hardware_threads = 0;
  uint32_t cores = 0;        // CPUs this process may run on (its affinity mask).
  std::string cpu_model;     // /proc/cpuinfo "model name"; "unknown" if absent.
  std::string cpu_governor;  // "unknown" when sysfs is unreadable (containers).
};

MachineInfo QueryMachineInfo() {
  MachineInfo info;
  info.hardware_threads = ThreadPool::DefaultThreadCount();
  cpu_set_t mask;
  info.cores = sched_getaffinity(0, sizeof(mask), &mask) == 0
                   ? static_cast<uint32_t>(CPU_COUNT(&mask))
                   : info.hardware_threads;
  info.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
        colon + 2 <= line.size()) {
      info.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  std::ifstream governor("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (!governor || !std::getline(governor, info.cpu_governor) ||
      info.cpu_governor.empty()) {
    info.cpu_governor = "unknown";
  }
  return info;
}

// Emits `"machine": {...},` (with trailing comma) at `indent`.
void EmitMachineJson(std::FILE* out, const char* indent) {
  const MachineInfo info = QueryMachineInfo();
  std::fprintf(out,
               "%s\"machine\": {\"hardware_threads\": %u, \"cores\": %u, "
               "\"cpu_model\": \"%s\", \"cpu_governor\": \"%s\", \"git_commit\": \"%s\", "
               "\"build_type\": \"%s\", \"compiler\": \"%s\", \"cxx_flags\": \"%s\"},\n",
               indent, info.hardware_threads, info.cores, info.cpu_model.c_str(),
               info.cpu_governor.c_str(),
               PERF_SUITE_GIT_COMMIT, PERF_SUITE_BUILD_TYPE, PERF_SUITE_COMPILER,
               PERF_SUITE_CXX_FLAGS);
}

// --- Metric rows --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  // "higher" = bigger is better (throughput); "lower" = smaller is better.
  const char* direction = "higher";
  double spread_pct = 0.0;
};

std::vector<Metric> g_metrics;
bool g_determinism_ok = true;
bool g_books_balanced = true;

void AddMetric(const std::string& name, double value, const char* unit,
               const char* direction, double spread_pct) {
  g_metrics.push_back(Metric{name, value, unit, direction, spread_pct});
  std::printf("  %-38s %14.1f %-10s (spread ±%.1f%%)\n", name.c_str(), value, unit,
              spread_pct);
}

// A throughput row: `units` of work per body call over the median call time.
void AddRate(const std::string& name, double units, const char* unit,
             const TimingSample& timing) {
  AddMetric(name, units / timing.median, unit, "higher", timing.SpreadPct());
}

// A speedup row: the median over rounds of reference seconds over optimized
// seconds. The two bodies are registered back to back, so each round times
// them one right after the other and a slow phase of the host slows both
// halves of a round's ratio alike.
void AddSpeedup(const std::string& name, const TimingSample& optimized,
                const TimingSample& reference) {
  std::vector<double> ratios;
  ratios.reserve(optimized.reps.size());
  for (size_t round = 0; round < optimized.reps.size(); ++round) {
    ratios.push_back(reference.reps[round] / optimized.reps[round]);
  }
  const TimingSample speedup = Summarize(std::move(ratios));
  AddMetric(name, speedup.median, "x", "higher", speedup.SpreadPct());
}

// --- Run plan -----------------------------------------------------------------
//
// Sections build their fixtures and register timed bodies plus report steps;
// main() measures every body in one MeasureMedianSeconds call, then runs the
// report steps in registration order to emit the rows. Bodies and report
// steps share their fixtures through shared_ptr captures, so each fixture
// lives until the plan is torn down.

std::vector<Body> g_bodies;
std::vector<TimingSample> g_samples;  // g_samples[i] times g_bodies[i].
std::vector<std::function<void()>> g_reports;

// Registers a timed body; its sample is g_samples[returned index].
size_t AddBody(Body body) {
  g_bodies.push_back(std::move(body));
  return g_bodies.size() - 1;
}

void AddReport(std::function<void()> report) { g_reports.push_back(std::move(report)); }

// Registers a throughput row for `body` (see AddRate).
void AddRateRow(std::string name, double units, const char* unit, Body body) {
  const size_t index = AddBody(std::move(body));
  AddReport([name = std::move(name), units, unit, index] {
    AddRate(name, units, unit, g_samples[index]);
  });
}

// Registers a throughput row on the optimized body and a speedup row over
// the reference body (see AddSpeedup).
void AddKernelRows(std::string rate_name, std::string speedup_name, double units,
                   const char* unit, Body optimized, Body reference) {
  const size_t fast = AddBody(std::move(optimized));
  const size_t slow = AddBody(std::move(reference));
  AddReport([rate_name = std::move(rate_name), speedup_name = std::move(speedup_name),
             units, unit, fast, slow] {
    AddRate(rate_name, units, unit, g_samples[fast]);
    AddSpeedup(speedup_name, g_samples[fast], g_samples[slow]);
  });
}

void AddSectionHeader(const char* section) {
  AddReport([section] { std::printf("\n[%s]\n", section); });
}

// --- Section: fleet_wallclock ----------------------------------------------

struct FleetFixture {
  std::vector<const WorkloadProfile*> profiles;
  std::vector<std::unique_ptr<OrchestrationPolicy>> policies;
  std::vector<SimFunctionSpec> specs;
  uint64_t total_requests = 0;

  FleetFixture(size_t fleet_size, uint64_t requests_per_function,
               uint32_t eviction_k) {
    const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
    profiles.reserve(fleet_size);
    policies.reserve(fleet_size);
    specs.reserve(fleet_size);
    for (size_t i = 0; i < fleet_size; ++i) {
      const auto* profile = evaluation[i % evaluation.size()];
      profiles.push_back(profile);
      policies.push_back(MustValue(
          MakePolicy("request-centric", PaperPolicyConfig(*profile, eviction_k))));
      SimFunctionSpec spec;
      char name[48];
      std::snprintf(name, sizeof(name), "f%03zu-%s", i, profile->name.c_str());
      spec.name = name;
      spec.profile = profile;
      spec.policy = policies.back().get();
      spec.requests = requests_per_function;
      specs.push_back(std::move(spec));
    }
    total_requests = fleet_size * requests_per_function;
  }
};

uint32_t RunFleetOnce(const FleetFixture& fixture, const SimOptions& options) {
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet,
                         fixture.specs, options);
  if (!report.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return report->Digest();
}

SimOptions FleetOptions(uint32_t threads, bool chaos) {
  SimOptions options;
  options.seed = kSeed;
  options.threads = threads;
  options.worker_slots = 4;
  options.exploring_slots = 1;
  options.eviction.kind = FleetEvictionSpec::Kind::kEveryK;
  options.eviction.k = 4;
  if (chaos) {
    options.faults.get_failure_rate = 0.01;
    options.faults.put_failure_rate = 0.01;
    options.faults.corruption_rate = 0.002;
    options.faults.seed = 7;
  }
  return options;
}

void SectionFleetWallclock() {
  AddSectionHeader("fleet_wallclock");
  const auto fixture = std::make_shared<const FleetFixture>(32, 160, 4);

  // Role-named metrics (not thread-count-named): on a 1-core host the
  // clamped "all cores" run degenerates to 1 worker and the names must not
  // collide with the serial row.
  const struct {
    const char* name;
    uint32_t threads;
  } configs[] = {
      {"fleet_wallclock_rps_serial", 1},
      {"fleet_wallclock_rps_allcores", 0},
  };
  for (const auto& config : configs) {
    const SimOptions options = FleetOptions(config.threads, /*chaos=*/false);
    AddRateRow(config.name, static_cast<double>(fixture->total_requests), "req/s",
               [fixture, options] { (void)RunFleetOnce(*fixture, options); });
  }

  // Standing invariant: digests bit-identical at --threads {1, 2, 8}, clean
  // and under chaos. A perf suite that silently traded determinism for speed
  // must fail here, not in a downstream experiment.
  for (const bool chaos : {false, true}) {
    uint32_t reference = 0;
    bool first = true;
    bool identical = true;
    for (const uint32_t threads : {1u, 2u, 8u}) {
      const uint32_t digest = RunFleetOnce(*fixture, FleetOptions(threads, chaos));
      if (first) {
        reference = digest;
        first = false;
      } else if (digest != reference) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: digest %08x at %u threads != %08x "
                     "(chaos=%d)\n",
                     digest, threads, reference, chaos ? 1 : 0);
        identical = false;
      }
    }
    g_determinism_ok = g_determinism_ok && identical;
    AddReport([chaos, identical] {
      std::printf("  digests across threads {1,2,8}%s: %s\n", chaos ? " under chaos" : "",
                  identical ? "bit-identical" : "DIVERGED");
    });
  }
}

// --- Section: micro_policy_ops ----------------------------------------------

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.UniformDouble() * 20.0;
  }
  return values;
}

// The pre-optimization softmax, verbatim: allocate per call, scalar loops.
std::vector<double> SoftmaxScalarReference(std::span<const double> logits,
                                           double temperature) {
  std::vector<double> out;
  if (logits.empty()) {
    return out;
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  out.reserve(logits.size());
  double total = 0.0;
  for (double logit : logits) {
    const double e = std::exp((logit - max_logit) / temperature);
    out.push_back(e);
    total += e;
  }
  for (double& p : out) {
    p /= total;
  }
  return out;
}

void SectionMicroPolicyOps() {
  AddSectionHeader("micro_policy_ops");
  constexpr int kIters = 200000;

  // Softmax at the policy's candidate count (pool capacity 12 + cold start).
  const auto logits = std::make_shared<const std::vector<double>>(RandomValues(13, 11));
  AddKernelRows(
      "softmax13_optimized_mops", "softmax13_speedup_vs_scalar", kIters / 1e6, "Mops/s",
      [logits, out = std::vector<double>(logits->size())]() mutable {
        for (int i = 0; i < kIters; ++i) {
          SoftmaxInto(*logits, 1.0, out);
        }
      },
      [logits] {
        volatile double sink = 0.0;
        for (int i = 0; i < kIters; ++i) {
          auto probs = SoftmaxScalarReference(*logits, 1.0);
          sink = sink + probs[0];
        }
      });

  // The weight-fold kernel over the JVM learning window W = 200.
  const auto values = std::make_shared<const std::vector<double>>(RandomValues(200, 12));
  AddKernelRows(
      "weight_fold200_optimized_melems", "weight_fold200_speedup_vs_scalar",
      kIters * static_cast<double>(values->size()) / 1e6, "Melem/s",
      [values, out = std::vector<double>(values->size())]() mutable {
        for (int i = 0; i < kIters; ++i) {
          InverseWeightsInto(*values, 0.01, out);
        }
      },
      [values, out = std::vector<double>(values->size())]() mutable {
        for (int i = 0; i < kIters; ++i) {
          for (size_t j = 0; j < values->size(); ++j) {
            out[j] = InverseWeight((*values)[j], 0.01);
          }
        }
      });
}

// --- Section: service_throughput --------------------------------------------

// The deferred group-commit path: eight client threads drive start ->
// observe xN -> retire cycles with commits deferred, one function each, so
// the shard threads batch the knowledge writes.
constexpr uint32_t kServiceFunctions = 8;
constexpr uint32_t kServiceCycles = 40;
constexpr uint32_t kServiceObservationsPerCycle = 6;
// Wire requests per run: each cycle is a start, its observations and an end.
constexpr uint64_t kServiceRequests =
    uint64_t{kServiceFunctions} * kServiceCycles * (kServiceObservationsPerCycle + 2);

// The per-function stack the service fronts (one shard owns all of it).
struct FunctionStack {
  FunctionStack(const OrchestrationPolicy& policy, const std::string& name_in,
                uint64_t seed)
      : name(name_in),
        profile(MustFind("DynamicHTML")),
        engine(HashCombine(seed, 0xe1)),
        state_store(db, name_in, policy.config()),
        snapshot_store(object_store),
        orchestrator(profile, WorkloadRegistry::Default(), policy, engine,
                     snapshot_store, state_store, clock, seed) {}

  std::string name;
  const WorkloadProfile& profile;
  SimClock clock;
  InMemoryKvDatabase db;
  InMemoryObjectStore object_store;
  CriuLikeEngine engine;
  PolicyStateStore state_store;
  FlatSnapshotStore snapshot_store;
  Orchestrator orchestrator;
};

// A group-commit service (4 shards, batch 16) with the stacks bound once, so
// a timed call pays only the client cycles and the final drain, not service
// start-up, binding or journal-directory setup.
class GroupCommitBench {
 public:
  // A non-empty `journal_dir` is created fresh and turns journaling on: every
  // deferred observation pays a journal append + flush before its ack. It is
  // removed again once the service has shut down.
  GroupCommitBench(std::shared_ptr<const OrchestrationPolicy> policy,
                   std::filesystem::path journal_dir)
      : policy_(std::move(policy)),
        journal_dir_(std::move(journal_dir)),
        service_(MakeConfig(journal_dir_)) {
    for (uint32_t f = 0; f < kServiceFunctions; ++f) {
      stacks_.push_back(std::make_unique<FunctionStack>(
          *policy_, "bench-fn-" + std::to_string(f), 100 + f));
      MustOk(service_.Bind(stacks_.back()->name, 0, &stacks_.back()->orchestrator,
                           &stacks_.back()->clock));
    }
  }

  ~GroupCommitBench() {
    service_.Shutdown();
    if (!journal_dir_.empty()) {
      std::filesystem::remove_all(journal_dir_);
    }
  }

  GroupCommitBench(const GroupCommitBench&) = delete;
  GroupCommitBench& operator=(const GroupCommitBench&) = delete;

  // Eight client threads, one per function, each run kServiceCycles
  // start -> observe xN -> retire cycles with commits deferred; then drains.
  void Run() {
    std::vector<std::thread> clients;
    for (const auto& stack : stacks_) {
      clients.emplace_back([this, &stack] {
        ServiceClient client(&service_, stack->name, 0, /*defer_commit=*/true);
        for (uint32_t cycle = 0; cycle < kServiceCycles; ++cycle) {
          if (!client.StartWorker().ok()) {
            continue;
          }
          for (uint64_t i = 0; i < kServiceObservationsPerCycle; ++i) {
            if (!client.ServeRequest({i, 1.0}).ok()) {
              break;
            }
          }
          (void)client.EndSession();
        }
      });
    }
    for (std::thread& thread : clients) {
      thread.join();
    }
    drained_ = drained_ && service_.Drain().ok();
    ++runs_;
  }

  // Clears g_books_balanced unless every run served all its requests and
  // every observation's knowledge write was committed.
  void CheckBooks() {
    const ServiceStatsSnapshot stats = service_.stats();
    const uint64_t expected = runs_ * kServiceRequests;
    const bool balanced = drained_ && stats.requests == expected &&
                          stats.observations_committed == stats.observations &&
                          stats.flush_errors == 0 && stats.decode_errors == 0;
    if (!balanced && g_books_balanced) {
      std::fprintf(stderr,
                   "BOOKS IMBALANCED: %llu of %llu requests served, %llu of %llu "
                   "observations committed (drain %s)\n",
                   static_cast<unsigned long long>(stats.requests),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(stats.observations_committed),
                   static_cast<unsigned long long>(stats.observations),
                   drained_ ? "ok" : "failed");
    }
    g_books_balanced = g_books_balanced && balanced;
  }

 private:
  static ServiceConfig MakeConfig(const std::filesystem::path& journal_dir) {
    ServiceConfig config;
    config.shards = 4;
    config.max_batch = 16;
    config.queue_capacity = 128;
    if (!journal_dir.empty()) {
      std::filesystem::remove_all(journal_dir);
      std::filesystem::create_directories(journal_dir);
      config.journal_dir = journal_dir.string();
    }
    return config;
  }

  std::shared_ptr<const OrchestrationPolicy> policy_;
  std::filesystem::path journal_dir_;
  // Declared before service_ so the service shuts down before its stacks go.
  std::vector<std::unique_ptr<FunctionStack>> stacks_;
  OrchestratorService service_;
  uint64_t runs_ = 0;
  bool drained_ = true;
};

void SectionServiceThroughput() {
  AddSectionHeader("service_throughput");
  const auto fixture = std::make_shared<const FleetFixture>(16, 120, 4);
  SimOptions options = FleetOptions(0, /*chaos=*/false);
  options.service.enabled = true;
  options.service.shards = 4;
  AddRateRow("service_mode_rps", static_cast<double>(fixture->total_requests), "req/s",
             [fixture, options] { (void)RunFleetOnce(*fixture, options); });

  PolicyConfig config;
  config.beta = 4;
  config.pool_capacity = 3;
  config.max_checkpoint_request = 30;
  const auto policy = RequestCentricPolicy::Create(config);
  MustOk(policy.status());
  const auto shared_policy = std::make_shared<const RequestCentricPolicy>(*policy);
  const struct {
    const char* name;
    std::filesystem::path journal_dir;
  } runs[] = {
      {"service_group_commit_rps", {}},
      {"service_group_commit_rps_journaled",
       std::filesystem::temp_directory_path() / "pronghorn_perf_suite_journal"},
  };
  for (const auto& run : runs) {
    const auto bench = std::make_shared<GroupCommitBench>(shared_policy, run.journal_dir);
    const size_t index = AddBody([bench] { bench->Run(); });
    AddReport([bench, index, name = run.name] {
      bench->CheckBooks();
      AddRate(name, static_cast<double>(kServiceRequests), "req/s", g_samples[index]);
    });
  }
  AddReport([] {
    std::printf("  group-commit books: %s\n", g_books_balanced ? "balanced" : "IMBALANCED");
  });
}

// --- Section: fleet_scale ---------------------------------------------------

void SectionFleetScale() {
  AddSectionHeader("fleet_scale");
  const auto fixture = std::make_shared<const FleetFixture>(600, 24, 4);
  SimOptions options = FleetOptions(0, /*chaos=*/false);
  options.retention.mode = ReportRetention::kTopLatency;
  options.retention.k = 32;
  AddRateRow("fleet_scale_600fn_rps", static_cast<double>(fixture->total_requests),
             "req/s", [fixture, options] { (void)RunFleetOnce(*fixture, options); });

  // Streaming generation of a 10k-function, 15-minute steady trace: the
  // k-way merge holds one pending arrival per function, never the full list.
  constexpr uint64_t kTraceFunctions = 10'000;
  auto specs = std::make_shared<std::vector<FunctionArrivalSpec>>();
  specs->reserve(kTraceFunctions);
  for (uint64_t i = 0; i < kTraceFunctions; ++i) {
    specs->push_back(ArrivalSpecFor(ArrivalMix::kSteady, kSeed, i, kTraceFunctions));
  }
  const auto model = std::make_shared<const AzureTraceModel>();
  const auto generate = [model, specs] {
    FleetArrivalStream stream(*model, *specs, kSeed, Duration::Seconds(900));
    while (stream.Next()) {
    }
    return stream.emitted();
  };
  AddRateRow("tracegen_10k_arrivals_per_s", static_cast<double>(generate()), "arrivals/s",
             [generate] { (void)generate(); });
}

// --- Section: storage_dedup -------------------------------------------------

constexpr size_t kDedupImages = 48;
constexpr size_t kDedupImageBytes = 192 * 1024;

// Synthetic snapshot lineage: each image is the previous one with a small
// dirty region, the dedup store's designed-for workload.
std::vector<std::vector<uint8_t>> DedupLineage() {
  constexpr size_t kMutationBytes = 4096;
  Rng rng(kSeed);
  std::vector<std::vector<uint8_t>> images;
  images.reserve(kDedupImages);
  std::vector<uint8_t> base(kDedupImageBytes);
  for (uint8_t& b : base) {
    b = static_cast<uint8_t>(rng.UniformUint64(256));
  }
  for (size_t i = 0; i < kDedupImages; ++i) {
    const size_t offset = rng.UniformUint64(kDedupImageBytes - kMutationBytes);
    for (size_t j = 0; j < kMutationBytes; ++j) {
      base[offset + j] = static_cast<uint8_t>(rng.UniformUint64(256));
    }
    images.push_back(base);
  }
  return images;
}

void FillDedupStore(const std::vector<std::vector<uint8_t>>& images,
                    DedupSnapshotStore& store) {
  for (size_t i = 0; i < images.size(); ++i) {
    auto ref = store.PutSnapshot("snapshots/bench/" + std::to_string(i),
                                 ObjectBlob(std::vector<uint8_t>(images[i]),
                                            images[i].size()));
    if (!ref.ok()) {
      std::fprintf(stderr, "put failed: %s\n", ref.status().ToString().c_str());
      std::exit(1);
    }
  }
}

// Opens and materializes every image once.
void RestoreStorm(DedupSnapshotStore& store) {
  for (size_t i = 0; i < kDedupImages; ++i) {
    auto reader = store.OpenSnapshot("snapshots/bench/" + std::to_string(i));
    if (!reader.ok() || !(*reader)->ReadAll().ok()) {
      std::fprintf(stderr, "restore of image %zu failed\n", i);
      std::exit(1);
    }
  }
}

void SectionStorageDedup() {
  AddSectionHeader("storage_dedup");
  const auto images = std::make_shared<const std::vector<std::vector<uint8_t>>>(DedupLineage());
  SnapshotStoreOptions store_options;
  store_options.kind = SnapshotStoreOptions::Kind::kDedup;
  const double total_mb =
      static_cast<double>(kDedupImages * kDedupImageBytes) / (1024.0 * 1024.0);

  AddRateRow("dedup_put_mbps", total_mb, "MB/s", [images, store_options] {
    DedupSnapshotStore store(store_options);
    FillDedupStore(*images, store);
  });

  const auto store = std::make_shared<DedupSnapshotStore>(store_options);
  FillDedupStore(*images, *store);
  AddRateRow("dedup_restore_mbps", total_mb, "MB/s", [store] { RestoreStorm(*store); });

  // REAP-style lazy restores through a host chunk cache half the lineage's
  // unique bytes, so every storm evicts and prefetches rather than only hits.
  SnapshotStoreOptions lazy_options = store_options;
  lazy_options.lazy_restore = true;
  lazy_options.chunk_cache_bytes = store->accounting().physical.bytes_stored / 2;
  const auto lazy_store = std::make_shared<DedupSnapshotStore>(lazy_options);
  FillDedupStore(*images, *lazy_store);
  AddRateRow("dedup_lazy_restore_mbps", total_mb, "MB/s",
             [lazy_store] { RestoreStorm(*lazy_store); });
}

// --- JSON -------------------------------------------------------------------

bool WriteJson() {
  std::FILE* out = std::fopen(kJsonPath, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", kJsonPath);
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"perf_suite\",\n");
  std::fprintf(out, "  \"schema_version\": 2,\n");
  EmitMachineJson(out, "  ");
  std::fprintf(out, "  \"seed\": %llu,\n", static_cast<unsigned long long>(kSeed));
  std::fprintf(out, "  \"determinism_ok\": %s,\n",
               g_determinism_ok ? "true" : "false");
  std::fprintf(out, "  \"books_balanced\": %s,\n", g_books_balanced ? "true" : "false");
  std::fprintf(out, "  \"metrics\": [\n");
  for (size_t i = 0; i < g_metrics.size(); ++i) {
    const Metric& metric = g_metrics[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\", "
                 "\"direction\": \"%s\", \"spread_pct\": %.2f}%s\n",
                 metric.name.c_str(), metric.value, metric.unit,
                 metric.direction, metric.spread_pct,
                 i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  using namespace pronghorn::bench;
  const MachineInfo machine = QueryMachineInfo();
  std::printf("=== Perf suite (regression-gated) ===\n");
  std::printf("host: %s, %u hardware thread(s), %u usable core(s), governor %s\n",
              machine.cpu_model.c_str(), machine.hardware_threads, machine.cores,
              machine.cpu_governor.c_str());
  std::printf("build: %s %s, %s [%s]\n", PERF_SUITE_GIT_COMMIT, PERF_SUITE_BUILD_TYPE,
              PERF_SUITE_COMPILER, PERF_SUITE_CXX_FLAGS);

  SectionFleetWallclock();
  SectionMicroPolicyOps();
  SectionServiceThroughput();
  SectionFleetScale();
  SectionStorageDedup();
  std::printf("timing %zu bodies: %d interleaved rounds of >= %.0f ms reps\n",
              g_bodies.size(), kTimedReps, kMinRepSeconds * 1e3);
  g_samples = MeasureMedianSeconds(g_bodies);
  for (const auto& report : g_reports) {
    report();
  }
  // Tears the plan down: services shut down and journal directories go.
  g_reports.clear();
  g_bodies.clear();

  const bool wrote = WriteJson();
  std::printf("\nwrote %s; determinism %s; group-commit books %s\n", kJsonPath,
              g_determinism_ok ? "OK" : "VIOLATED",
              g_books_balanced ? "balanced" : "IMBALANCED");
  return wrote && g_determinism_ok && g_books_balanced ? 0 : 1;
}
