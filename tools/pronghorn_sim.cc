// pronghorn_sim: command-line driver for the simulator.
//
// Every mode routes through the unified Simulate() entry point
// (src/platform/simulate.h); the mode flags only choose the topology and how
// the function list is built.
//
// Single-function mode runs one benchmark under one policy and eviction
// regime, prints a summary, and optionally exports the per-request records as
// CSV (the artifact's results/ format) for external plotting.
//
//   pronghorn_sim --benchmark DynamicHTML --policy request-centric
//                 --eviction 1 --requests 500 --seed 42 --csv out.csv
//
// Fleet mode (--fleet N) deploys N functions cycling through the paper's
// evaluation set and runs them as independent shards on a work-stealing
// thread pool (--threads, default hardware concurrency). The merged report
// is bit-identical for any thread count; the printed digest makes that
// checkable from the shell:
//
//   pronghorn_sim --fleet 100 --requests 200 --threads 8 --seed 42
//
// Platform mode (--platform N) deploys N functions from the evaluation set
// into one shared control plane (one Database + Object Store for everyone)
// and drives a closed loop across all of them; the printed digest is
// comparable with a one-function fleet digest:
//
//   pronghorn_sim --platform 4 --requests 200 --seed 42
//
// Observability (any mode): --trace-out FILE records worker-lifecycle spans
// as Chrome trace JSON (open in chrome://tracing or https://ui.perfetto.dev),
// --metrics-out FILE dumps the counters/gauges/histograms as JSON, and
// --histogram prints latency histograms to stdout. None of these change the
// simulation: digests are bit-identical with observability on or off.
//
// The --seed/--engine/--eviction/--no-noise/--fault-* flags mean the same
// thing in all three modes and are parsed once, straight into the SimOptions
// every mode hands to Simulate() (ParseSimOptions).
//
// Policies: cold | after-first | request-centric | stop-condition
// Eviction: integer k (every-k), "geometric:<mean>", or "idle:<seconds>".

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/common/flags.h"
#include "src/common/thread_pool.h"
#include "src/obs/sink.h"
#include "src/platform/evaluation.h"
#include "src/platform/report_io.h"
#include "src/platform/simulate.h"
#include "src/trace/azure_model.h"

using namespace pronghorn;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Parses all of `text` as a T; nullopt on anything else (an empty string,
// trailing garbage, a sign an unsigned T cannot hold, overflow, inf, nan).
template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  return value;
}

// One eviction-spec grammar for every mode; each deployment instantiates its
// own model from its sub-seed inside Simulate(). Strict: the whole token must
// parse and the value must be positive.
Result<FleetEvictionSpec> ParseEvictionSpec(std::string_view spec) {
  FleetEvictionSpec parsed;
  if (spec.starts_with("geometric:")) {
    const std::optional<double> mean = ParseWhole<double>(spec.substr(10));
    if (!mean.has_value() || *mean < 1.0) {
      return InvalidArgumentError("geometric mean must be a number >= 1, got '" +
                                  std::string(spec) + "'");
    }
    parsed.kind = FleetEvictionSpec::Kind::kGeometric;
    parsed.mean_requests = *mean;
    return parsed;
  }
  if (spec.starts_with("idle:")) {
    const std::optional<double> seconds = ParseWhole<double>(spec.substr(5));
    if (!seconds.has_value() || *seconds <= 0) {
      return InvalidArgumentError("idle timeout must be a positive number, got '" +
                                  std::string(spec) + "'");
    }
    parsed.kind = FleetEvictionSpec::Kind::kIdleTimeout;
    parsed.idle_timeout = Duration::Seconds(*seconds);
    return parsed;
  }
  const std::optional<uint64_t> k = ParseWhole<uint64_t>(spec);
  if (!k.has_value() || *k == 0) {
    return InvalidArgumentError(
        "--eviction must be a positive integer k, geometric:<mean>, or "
        "idle:<seconds>; got '" +
        std::string(spec) + "'");
  }
  parsed.kind = FleetEvictionSpec::Kind::kEveryK;
  parsed.k = *k;
  return parsed;
}

// The every-k eviction period, or 0 for the other eviction kinds.
uint64_t EvictionK(const FleetEvictionSpec& eviction) {
  return eviction.kind == FleetEvictionSpec::Kind::kEveryK ? eviction.k : 0;
}

// Reads an integer flag that must lie in [min, UINT32_MAX]: a range check,
// not a cast, so a negative value is an error instead of a wrapped one.
Result<uint32_t> GetUint32Flag(const FlagParser& flags, const std::string& name,
                               uint32_t min) {
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t value, flags.GetInt(name));
  if (value < min || value > std::numeric_limits<uint32_t>::max()) {
    return InvalidArgumentError("--" + name + " must be in [" + std::to_string(min) +
                                ", 4294967295], got " + std::to_string(value));
  }
  return static_cast<uint32_t>(value);
}

// The §5.1 parameters (PaperPolicyConfig) with the --beta/--pool/--w
// overrides; beta 0 derives from the eviction period, W 0 keeps the
// per-family default.
Result<PolicyConfig> MakeConfig(const WorkloadProfile& profile, const FlagParser& flags,
                                uint64_t eviction_k) {
  PRONGHORN_ASSIGN_OR_RETURN(uint32_t beta, GetUint32Flag(flags, "beta", 0));
  if (beta == 0) {
    // Saturates rather than wraps, so an oversized k fails Validate()
    // instead of aliasing to a small beta.
    beta = eviction_k == 0 ? 4
                           : static_cast<uint32_t>(std::min<uint64_t>(
                                 eviction_k, std::numeric_limits<uint32_t>::max()));
  }
  PolicyConfig config = PaperPolicyConfig(profile, beta);
  PRONGHORN_ASSIGN_OR_RETURN(config.pool_capacity, GetUint32Flag(flags, "pool", 1));
  PRONGHORN_ASSIGN_OR_RETURN(const uint32_t w, GetUint32Flag(flags, "w", 0));
  if (w != 0) {
    config.max_checkpoint_request = w;
  }
  PRONGHORN_RETURN_IF_ERROR(config.Validate());
  return config;
}

// The plan flags below are comma-separated items of colon-separated fields.
// Split keeps empty fields; ParsePlan skips empty items and parses each other
// one with `parse_item`.
std::vector<std::string_view> Split(std::string_view text, char separator) {
  std::vector<std::string_view> fields;
  size_t begin = 0;
  for (size_t end = text.find(separator); end != std::string_view::npos;
       end = text.find(separator, begin)) {
    fields.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  fields.push_back(text.substr(begin));
  return fields;
}

template <typename T, typename ParseItem>
Result<std::vector<T>> ParsePlan(std::string_view spec, ParseItem parse_item) {
  std::vector<T> items;
  for (const std::string_view item : Split(spec, ',')) {
    if (!item.empty()) {
      PRONGHORN_ASSIGN_OR_RETURN(T parsed, parse_item(item));
      items.push_back(parsed);
    }
  }
  return items;
}

// One plan field: a string field verbatim, a numeric one parsed whole.
bool ParseField(std::string_view text, std::string_view& out) {
  out = text;
  return true;
}

template <typename T>
bool ParseField(std::string_view text, T& out) {
  const std::optional<T> value = ParseWhole<T>(text);
  if (value.has_value()) {
    out = *value;
  }
  return value.has_value();
}

// Parses `item` into `out...`: true only when it has exactly that many
// colon-separated fields and each parses.
template <typename... T>
bool ParseFields(std::string_view item, T&... out) {
  const std::vector<std::string_view> fields = Split(item, ':');
  size_t i = 0;
  return fields.size() == sizeof...(T) && (ParseField(fields[i++], out) && ...);
}

// Grammar: "start:end" (seconds) with an optional "@store" / "@db" domain
// suffix, comma-separated. Example: --fault-outage 10:12@db,30:31
Result<std::vector<FaultWindow>> ParseOutageWindows(std::string_view spec) {
  return ParsePlan<FaultWindow>(spec, [](std::string_view item) -> Result<FaultWindow> {
    FaultWindow window;
    window.kind = FaultWindow::Kind::kOutage;
    if (const size_t at = item.find('@'); at != std::string_view::npos) {
      const std::string_view domain = item.substr(at + 1);
      if (domain == "store") {
        window.domain = FaultDomain::kObjectStore;
      } else if (domain == "db") {
        window.domain = FaultDomain::kDatabase;
      } else {
        return InvalidArgumentError("outage domain must be 'store' or 'db', got '" +
                                    std::string(domain) + "'");
      }
      item = item.substr(0, at);
    }
    double start = 0;
    double stop = 0;
    if (!ParseFields(item, start, stop)) {
      return InvalidArgumentError("outage window needs start:end, got '" +
                                  std::string(item) + "'");
    }
    if (stop <= start) {
      return InvalidArgumentError("outage window end must be after start");
    }
    window.start = TimePoint() + Duration::Seconds(start);
    window.end = TimePoint() + Duration::Seconds(stop);
    return window;
  });
}

// Grammar: "start:end:extra_ms" (seconds, seconds, milliseconds),
// comma-separated. Example: --fault-latency 5:8:250
Result<std::vector<FaultWindow>> ParseLatencyWindows(std::string_view spec) {
  return ParsePlan<FaultWindow>(spec, [](std::string_view item) -> Result<FaultWindow> {
    double start = 0;
    double stop = 0;
    double extra_ms = 0;
    if (!ParseFields(item, start, stop, extra_ms)) {
      return InvalidArgumentError("latency window needs start:end:ms, got '" +
                                  std::string(item) + "'");
    }
    if (stop <= start || extra_ms <= 0) {
      return InvalidArgumentError("latency window needs end > start and ms > 0");
    }
    FaultWindow window;
    window.kind = FaultWindow::Kind::kLatency;
    window.start = TimePoint() + Duration::Seconds(start);
    window.end = TimePoint() + Duration::Seconds(stop);
    window.extra_latency = Duration::Millis(static_cast<int64_t>(extra_ms));
    return window;
  });
}

// Grammar: "shard:op:stage", comma-separated; stage is one of enqueue,
// mid-batch, pre-truncate. Example: --crash-plan 0:25:mid-batch,2:40:enqueue
Result<std::vector<ServiceCrash>> ParseCrashPlan(std::string_view spec) {
  return ParsePlan<ServiceCrash>(spec, [](std::string_view item) -> Result<ServiceCrash> {
    ServiceCrash crash;
    std::string_view stage;
    if (!ParseFields(item, crash.shard, crash.at_op, stage)) {
      return InvalidArgumentError("crash needs shard:op:stage, got '" +
                                  std::string(item) + "'");
    }
    if (stage == "enqueue") {
      crash.stage = ServiceCrashStage::kEnqueue;
    } else if (stage == "mid-batch") {
      crash.stage = ServiceCrashStage::kMidBatch;
    } else if (stage == "pre-truncate") {
      crash.stage = ServiceCrashStage::kPreTruncate;
    } else {
      return InvalidArgumentError(
          "crash stage must be enqueue, mid-batch, or pre-truncate; got '" +
          std::string(stage) + "'");
    }
    if (crash.at_op == 0) {
      return InvalidArgumentError("crash op index is 1-based; got 0");
    }
    return crash;
  });
}

// Grammar: "shard:op:wall_ms", comma-separated. Example: --stall-plan 1:10:50
Result<std::vector<ServiceStall>> ParseStallPlan(std::string_view spec) {
  return ParsePlan<ServiceStall>(spec, [](std::string_view item) -> Result<ServiceStall> {
    ServiceStall stall;
    if (!ParseFields(item, stall.shard, stall.at_op, stall.wall_millis)) {
      return InvalidArgumentError("stall needs shard:op:ms, got '" + std::string(item) +
                                  "'");
    }
    if (stall.at_op == 0 || stall.wall_millis == 0) {
      return InvalidArgumentError("stall needs a 1-based op and ms > 0");
    }
    return stall;
  });
}

Result<FaultPlan> ParseFaultPlan(const FlagParser& flags) {
  FaultPlan plan;
  PRONGHORN_ASSIGN_OR_RETURN(const double rate, flags.GetDouble("fault-rate"));
  PRONGHORN_ASSIGN_OR_RETURN(const double corrupt, flags.GetDouble("fault-corrupt"));
  PRONGHORN_ASSIGN_OR_RETURN(const double torn, flags.GetDouble("fault-torn"));
  if (rate < 0 || rate > 1 || corrupt < 0 || corrupt > 1 || torn < 0 || torn > 1) {
    return InvalidArgumentError("fault rates must be in [0, 1]");
  }
  plan.get_failure_rate = rate;
  plan.put_failure_rate = rate;
  plan.delete_failure_rate = rate;
  plan.metadata_failure_rate = rate;
  plan.corruption_rate = corrupt;
  plan.torn_write_rate = torn;
  PRONGHORN_ASSIGN_OR_RETURN(const double chunk_corrupt,
                             flags.GetDouble("fault-chunk-corrupt"));
  PRONGHORN_ASSIGN_OR_RETURN(const double manifest_corrupt,
                             flags.GetDouble("fault-manifest-corrupt"));
  if (chunk_corrupt < 0 || chunk_corrupt > 1 || manifest_corrupt < 0 ||
      manifest_corrupt > 1) {
    return InvalidArgumentError("fault rates must be in [0, 1]");
  }
  plan.chunk_corruption_rate = chunk_corrupt;
  plan.manifest_corruption_rate = manifest_corrupt;
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t fault_seed, flags.GetInt("fault-seed"));
  plan.seed = static_cast<uint64_t>(fault_seed);
  PRONGHORN_ASSIGN_OR_RETURN(auto outages,
                             ParseOutageWindows(*flags.GetString("fault-outage")));
  PRONGHORN_ASSIGN_OR_RETURN(auto spikes,
                             ParseLatencyWindows(*flags.GetString("fault-latency")));
  plan.windows = std::move(outages);
  plan.windows.insert(plan.windows.end(), spikes.begin(), spikes.end());
  return plan;
}

// --store / --chunk-size / --cdc / --lazy-restore → SnapshotStoreOptions.
// Chunk-granular knobs require --store=dedup: on a flat build they would
// silently do nothing, which reads as a measurement when it is a typo.
Result<SnapshotStoreOptions> ParseStoreOptions(const FlagParser& flags) {
  SnapshotStoreOptions store;
  const std::string kind = *flags.GetString("store");
  if (kind == "dedup") {
    store.kind = SnapshotStoreOptions::Kind::kDedup;
  } else if (kind != "flat") {
    return InvalidArgumentError("unknown --store '" + kind +
                                "' (expected flat or dedup)");
  }
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t chunk_size, flags.GetInt("chunk-size"));
  if (chunk_size < 64 || chunk_size > (64 << 20)) {
    return InvalidArgumentError("--chunk-size must be in [64, 64Mi]");
  }
  store.chunker.chunk_size = static_cast<uint32_t>(chunk_size);
  store.chunker.min_size = static_cast<uint32_t>(std::max<int64_t>(64, chunk_size / 4));
  store.chunker.max_size = static_cast<uint32_t>(chunk_size * 4);
  store.chunker.cdc = flags.GetBool("cdc").value_or(false);
  store.lazy_restore = flags.GetBool("lazy-restore").value_or(false);
  if (store.kind == SnapshotStoreOptions::Kind::kFlat &&
      (store.chunker.cdc || store.lazy_restore ||
       store.chunker.chunk_size != 4096)) {
    return InvalidArgumentError(
        "--chunk-size, --cdc, and --lazy-restore require --store=dedup");
  }
  return store;
}

// The flags every mode shares: --seed, --engine, --eviction, --no-noise, the
// store and service knobs, and the whole --fault-* family. Parsed once,
// straight into the SimOptions each mode passes to Simulate(), so single,
// fleet, and platform runs cannot drift apart in how they interpret them.
// Each mode then sets only its topology fields.
Result<SimOptions> ParseSimOptions(const FlagParser& flags) {
  SimOptions options;
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed"));
  options.seed = static_cast<uint64_t>(seed);
  const std::string engine_name = *flags.GetString("engine");
  if (engine_name == "delta") {
    options.engine_kind = EngineKind::kDelta;
  } else if (engine_name != "criu") {
    return InvalidArgumentError("unknown engine '" + engine_name + "'");
  }
  PRONGHORN_ASSIGN_OR_RETURN(options.eviction,
                             ParseEvictionSpec(*flags.GetString("eviction")));
  options.input_noise = !flags.GetBool("no-noise").value_or(false);
  options.state_cache = !flags.GetBool("no-state-cache").value_or(false);
  PRONGHORN_ASSIGN_OR_RETURN(options.faults, ParseFaultPlan(flags));
  PRONGHORN_ASSIGN_OR_RETURN(options.store, ParseStoreOptions(flags));
  if ((options.faults.chunk_corruption_rate > 0 ||
       options.faults.manifest_corruption_rate > 0) &&
      options.store.kind != SnapshotStoreOptions::Kind::kDedup) {
    return InvalidArgumentError(
        "--fault-chunk-corrupt and --fault-manifest-corrupt require "
        "--store=dedup");
  }
  options.service.enabled = flags.GetBool("service").value_or(false);
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t shards, flags.GetInt("service-shards"));
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t batch, flags.GetInt("service-batch"));
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t flush_ms, flags.GetInt("flush-interval"));
  if (shards <= 0 || batch <= 0 || flush_ms < 0) {
    return InvalidArgumentError(
        "--service-shards and --service-batch must be positive, "
        "--flush-interval non-negative");
  }
  options.service.shards = static_cast<uint32_t>(shards);
  options.service.max_batch = static_cast<uint32_t>(batch);
  options.service.flush_interval = Duration::Millis(flush_ms);

  // Crash-tolerance knobs: all three require --service (they configure the
  // live service, which otherwise does not exist), and a crash/stall plan
  // naming a shard the topology does not have is a hard configuration error —
  // a fault that can never fire is a typo, not chaos.
  options.service.journal_dir = *flags.GetString("journal-dir");
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t shed_ms, flags.GetInt("shed-deadline"));
  if (shed_ms < 0) {
    return InvalidArgumentError("--shed-deadline must be non-negative");
  }
  options.service.shed_deadline_ms = static_cast<uint32_t>(shed_ms);
  PRONGHORN_ASSIGN_OR_RETURN(options.faults.service.crashes,
                             ParseCrashPlan(*flags.GetString("crash-plan")));
  PRONGHORN_ASSIGN_OR_RETURN(options.faults.service.stalls,
                             ParseStallPlan(*flags.GetString("stall-plan")));
  if (!options.service.enabled &&
      (!options.service.journal_dir.empty() || options.service.shed_deadline_ms > 0 ||
       options.faults.service.Active())) {
    return InvalidArgumentError(
        "--journal-dir, --shed-deadline, --crash-plan, and --stall-plan "
        "require --service");
  }
  if (options.faults.service.Active() &&
      options.faults.service.MaxShardNamed() >= options.service.shards) {
    return InvalidArgumentError(
        "crash/stall plan names shard " +
        std::to_string(options.faults.service.MaxShardNamed()) +
        " but the service only has " + std::to_string(options.service.shards) +
        " shards (0-" + std::to_string(options.service.shards - 1) + ")");
  }
  if (!options.service.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.service.journal_dir, ec);
    if (ec) {
      return InvalidArgumentError("cannot create --journal-dir '" +
                                  options.service.journal_dir + "': " + ec.message());
    }
  }

  // Streaming retention + resumable-checkpoint knobs.
  PRONGHORN_ASSIGN_OR_RETURN(options.retention.mode,
                             ParseRetention(*flags.GetString("retention")));
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t retention_k,
                             flags.GetInt("retention-k"));
  if (retention_k <= 0) {
    return InvalidArgumentError("--retention-k must be positive");
  }
  options.retention.k = static_cast<uint64_t>(retention_k);
  options.retention.seed = options.seed;
  options.sim_checkpoint.dir = *flags.GetString("sim-checkpoint-dir");
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t ckpt_every,
                             flags.GetInt("sim-checkpoint-every"));
  if (ckpt_every <= 0) {
    return InvalidArgumentError("--sim-checkpoint-every must be positive");
  }
  options.sim_checkpoint.every = static_cast<uint64_t>(ckpt_every);
  options.sim_checkpoint.resume = flags.GetBool("resume").value_or(false);
  if (options.sim_checkpoint.resume && options.sim_checkpoint.dir.empty()) {
    return InvalidArgumentError("--resume requires --sim-checkpoint-dir");
  }
  if (!options.sim_checkpoint.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.sim_checkpoint.dir, ec);
    if (ec) {
      return InvalidArgumentError("cannot create --sim-checkpoint-dir '" +
                                  options.sim_checkpoint.dir + "': " + ec.message());
    }
  }
  return options;
}

Result<uint32_t> ParseThreads(const FlagParser& flags) {
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t threads, flags.GetInt("threads"));
  if (threads < 0 || threads > ThreadPool::kMaxThreads) {
    return InvalidArgumentError("--threads must be in [0, " +
                                std::to_string(ThreadPool::kMaxThreads) + "]");
  }
  return static_cast<uint32_t>(threads);
}

// Builds the observability sink when any of --trace-out / --metrics-out /
// --histogram asks for one; returns nullptr (observability fully disabled,
// the zero-cost path) otherwise.
std::unique_ptr<StandardObs> MakeObsSink(const FlagParser& flags) {
  const bool want_trace = !flags.GetString("trace-out")->empty();
  const bool want_metrics =
      !flags.GetString("metrics-out")->empty() ||
      flags.GetBool("histogram").value_or(false);
  if (!want_trace && !want_metrics) {
    return nullptr;
  }
  StandardObs::Options options;
  options.trace = want_trace;
  options.metrics = true;  // Counters are cheap; keep them for either output.
  return std::make_unique<StandardObs>(options);
}

// Writes the artifacts the observability flags asked for.
Status ExportObs(const FlagParser& flags, const SimReport& report) {
  const std::string trace_path = *flags.GetString("trace-out");
  if (!trace_path.empty()) {
    if (report.trace == nullptr) {
      return InternalError("trace requested but no recorder attached");
    }
    PRONGHORN_RETURN_IF_ERROR(report.trace->WriteChromeJson(trace_path));
    std::printf("wrote trace (%llu events, %llu dropped) to %s\n",
                static_cast<unsigned long long>(report.trace->recorded() -
                                                report.trace->dropped()),
                static_cast<unsigned long long>(report.trace->dropped()),
                trace_path.c_str());
  }
  const std::string metrics_path = *flags.GetString("metrics-out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::binary);
    out << report.metrics.ToJson();
    if (!out.good()) {
      return InternalError("failed to write metrics JSON to " + metrics_path);
    }
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (flags.GetBool("histogram").value_or(false)) {
    if (report.metrics.histograms.empty()) {
      std::printf("histograms: (none recorded)\n");
    }
    for (const auto& [name, histogram] : report.metrics.histograms) {
      std::printf("histogram %s: count=%llu p50=%.0f p90=%.0f p99=%.0f max=%llu\n"
                  "  |%s|\n",
                  name.c_str(), static_cast<unsigned long long>(histogram.count()),
                  histogram.Quantile(50), histogram.Quantile(90),
                  histogram.Quantile(99),
                  static_cast<unsigned long long>(histogram.max()),
                  histogram.ToAsciiArt().c_str());
    }
  }
  return OkStatus();
}

void PrintFaultLine(const FaultRecoveryStats& faults) {
  std::printf("faults: store=%llu db=%llu corrupted=%llu torn=%llu "
              "fallbacks=%llu quarantined=%llu degraded=%llu replayed=%llu "
              "ckpt_skipped=%llu\n",
              static_cast<unsigned long long>(faults.store_faults),
              static_cast<unsigned long long>(faults.db_faults),
              static_cast<unsigned long long>(faults.corrupted_puts),
              static_cast<unsigned long long>(faults.torn_puts),
              static_cast<unsigned long long>(faults.restore_fallbacks),
              static_cast<unsigned long long>(faults.snapshots_quarantined),
              static_cast<unsigned long long>(faults.degraded_starts),
              static_cast<unsigned long long>(faults.observations_replayed),
              static_cast<unsigned long long>(faults.checkpoints_skipped));
}

// MakePolicy for --policy; --explore-budget sizes stop-condition's
// exploration (0 = the paper's W + 100 bound).
Result<std::unique_ptr<OrchestrationPolicy>> PolicyFromFlags(const FlagParser& flags,
                                                             const PolicyConfig& config) {
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t explore_budget,
                             flags.GetInt("explore-budget"));
  if (explore_budget < 0) {
    return InvalidArgumentError("--explore-budget must be non-negative");
  }
  return MakePolicy(*flags.GetString("policy"), config,
                    static_cast<uint64_t>(explore_budget));
}

// Fleet mode: scales one deployment's closed-loop request count by how much
// busier or quieter the arrival mix says it is than the model's median
// function. Deterministic in (mix, seed, index, count); the scale is clamped
// to [1/8, 8]x so a 99th-percentile tenant cannot swamp the run.
uint64_t MixScaledRequests(uint64_t requests, ArrivalMix mix, uint64_t seed,
                           uint64_t index, uint64_t count) {
  if (mix == ArrivalMix::kSteady) {
    return requests;  // Homogeneous: the historical default, digest-stable.
  }
  const AzureTraceModel model;
  const FunctionArrivalSpec arrival = ArrivalSpecFor(mix, seed, index, count);
  const Result<double> daily = model.DailyInvocationsAtPercentile(arrival.percentile);
  const Result<double> median = model.DailyInvocationsAtPercentile(50.0);
  if (!daily.ok() || !median.ok() || *median <= 0.0) {
    return requests;
  }
  const double scale = std::clamp(*daily / *median, 0.125, 8.0);
  const double scaled = static_cast<double>(requests) * scale;
  return std::max<uint64_t>(1, static_cast<uint64_t>(scaled));
}

// Builds specs cycling through the evaluation set (fleet and platform modes).
// `mix`, when non-null (fleet mode), makes the fleet heterogeneous: each
// deployment's request count follows its popularity under the arrival mix.
Result<std::vector<SimFunctionSpec>> BuildEvaluationSpecs(
    const FlagParser& flags, int64_t count, uint64_t requests,
    uint64_t eviction_k, bool unique_names,
    std::vector<std::unique_ptr<OrchestrationPolicy>>& policies, const ArrivalMix* mix = nullptr) {
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  PRONGHORN_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed"));
  std::vector<SimFunctionSpec> specs;
  specs.reserve(static_cast<size_t>(count));
  policies.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const WorkloadProfile& profile =
        *evaluation[static_cast<size_t>(i) % evaluation.size()];
    PRONGHORN_ASSIGN_OR_RETURN(PolicyConfig config,
                               MakeConfig(profile, flags, eviction_k));
    PRONGHORN_ASSIGN_OR_RETURN(std::unique_ptr<OrchestrationPolicy> policy,
                               PolicyFromFlags(flags, config));
    policies.push_back(std::move(policy));

    SimFunctionSpec spec;
    if (unique_names) {
      char name[64];
      std::snprintf(name, sizeof(name), "f%04lld-%s", static_cast<long long>(i),
                    profile.name.c_str());
      spec.name = name;
    } else {
      spec.name = profile.name;
    }
    spec.profile = &profile;
    spec.policy = policies.back().get();
    spec.requests =
        mix == nullptr
            ? requests
            : MixScaledRequests(requests, *mix, static_cast<uint64_t>(seed),
                                static_cast<uint64_t>(i),
                                static_cast<uint64_t>(count));
    specs.push_back(std::move(spec));
  }
  return specs;
}

int RunFleet(const FlagParser& flags, SimOptions options, uint64_t requests) {
  const int64_t fleet_size = *flags.GetInt("fleet");
  const int64_t slots = *flags.GetInt("slots");
  const int64_t exploring = *flags.GetInt("exploring");
  auto threads = ParseThreads(flags);
  if (!threads.ok()) {
    return Fail(threads.status());
  }
  if (slots <= 0 || exploring < 0) {
    return Fail(InvalidArgumentError("--slots must be > 0 and --exploring >= 0"));
  }
  options.threads = *threads;
  options.worker_slots = static_cast<uint32_t>(slots);
  options.exploring_slots = static_cast<uint32_t>(exploring);

  auto mix = ParseArrivalMix(*flags.GetString("arrival-mix"));
  if (!mix.ok()) {
    return Fail(mix.status());
  }
  std::vector<std::unique_ptr<OrchestrationPolicy>> policies;
  auto specs = BuildEvaluationSpecs(flags, fleet_size, requests,
                                    EvictionK(options.eviction),
                                    /*unique_names=*/true, policies, &*mix);
  if (!specs.ok()) {
    return Fail(specs.status());
  }

  const std::unique_ptr<StandardObs> obs = MakeObsSink(flags);
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kFleet, *specs,
                         options, obs.get());
  if (!report.ok()) {
    return Fail(report.status());
  }
  const uint32_t effective_threads = ThreadPool::EffectiveParallelism(options.threads);
  const std::string policy_name = *flags.GetString("policy");
  std::printf("fleet=%lld policy=%s eviction=%s threads=%u mix=%s\n",
              static_cast<long long>(fleet_size), policy_name.c_str(),
              flags.GetString("eviction")->c_str(), effective_threads,
              std::string(ArrivalMixName(*mix)).c_str());
  if (report->retention != ReportRetention::kAll) {
    std::printf("retention=%s k=%llu functions=%llu invocations=%llu "
                "(per-function detail decimated; digest covers all)\n",
                std::string(RetentionLabel(report->retention)).c_str(),
                static_cast<unsigned long long>(options.retention.k),
                static_cast<unsigned long long>(report->functions_total),
                static_cast<unsigned long long>(report->invocations_total));
  }
  // Under bounded retention the sample-exact summary is empty; the bucket-
  // exact histogram covers every invocation in all modes.
  const bool bounded = report->retention != ReportRetention::kAll;
  std::printf("requests=%llu p50_us=%.0f p90_us=%.0f p99_us=%.0f lifetimes=%llu "
              "cold=%llu restores=%llu checkpoints=%llu digest=%08x\n",
              static_cast<unsigned long long>(
                  bounded ? report->invocations_total : report->latency.count()),
              bounded ? report->latency_hist.Quantile(50)
                      : report->latency.Quantile(50),
              bounded ? report->latency_hist.Quantile(90)
                      : report->latency.Quantile(90),
              bounded ? report->latency_hist.Quantile(99)
                      : report->latency.Quantile(99),
              static_cast<unsigned long long>(report->worker_lifetimes),
              static_cast<unsigned long long>(report->cold_starts),
              static_cast<unsigned long long>(report->restores),
              static_cast<unsigned long long>(report->checkpoints),
              report->Digest());
  if (options.faults.Active()) {
    PrintFaultLine(report->faults);
  }

  const size_t shown = std::min<size_t>(report->per_function.size(), 8);
  for (size_t i = 0; i < shown; ++i) {
    const auto& [function, cluster] = report->per_function[i];
    std::printf("  %-24s p50_us=%9.0f checkpoints=%4llu restores=%4llu\n",
                function.c_str(), cluster.LatencySummary().Median(),
                static_cast<unsigned long long>(cluster.checkpoints),
                static_cast<unsigned long long>(cluster.restores));
  }
  if (report->per_function.size() > shown) {
    std::printf("  ... %zu more deployments\n", report->per_function.size() - shown);
  }

  const std::string csv_path = *flags.GetString("csv");
  if (!csv_path.empty()) {
    // Merged records in canonical (name) order, renumbered globally.
    std::vector<RequestRecord> merged;
    merged.reserve(report->latency.count());
    for (const auto& [function, cluster] : report->per_function) {
      for (RequestRecord record : cluster.records) {
        record.global_index = merged.size();
        merged.push_back(record);
      }
    }
    SimulationReport csv_report;
    csv_report.records = std::move(merged);
    if (Status s = WriteRecordsCsv(csv_report, csv_path); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %zu records to %s\n", csv_report.records.size(),
                csv_path.c_str());
  }
  if (Status s = ExportObs(flags, *report); !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int RunPlatform(const FlagParser& flags, const SimOptions& options,
                uint64_t requests) {
  const int64_t platform_size = *flags.GetInt("platform");
  const auto evaluation = WorkloadRegistry::Default().EvaluationSet();
  if (platform_size > static_cast<int64_t>(evaluation.size())) {
    // Platform deployments are keyed by profile name, so each evaluation
    // function can be deployed at most once.
    return Fail(InvalidArgumentError(
        "--platform must be <= " + std::to_string(evaluation.size()) +
        " (the evaluation set; deployments are keyed by function name)"));
  }

  std::vector<std::unique_ptr<OrchestrationPolicy>> policies;
  auto specs = BuildEvaluationSpecs(flags, platform_size, requests,
                                    EvictionK(options.eviction),
                                    /*unique_names=*/false, policies);
  if (!specs.ok()) {
    return Fail(specs.status());
  }

  const std::unique_ptr<StandardObs> obs = MakeObsSink(flags);
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kPlatform,
                         *specs, options, obs.get());
  if (!report.ok()) {
    return Fail(report.status());
  }
  const std::string policy_name = *flags.GetString("policy");
  std::printf("platform=%lld policy=%s eviction=%s\n",
              static_cast<long long>(platform_size), policy_name.c_str(),
              flags.GetString("eviction")->c_str());
  std::printf("requests=%zu p50_us=%.0f p90_us=%.0f p99_us=%.0f lifetimes=%llu "
              "checkpoints=%llu digest=%08x\n",
              report->latency.count(), report->latency.Quantile(50),
              report->latency.Quantile(90), report->latency.Quantile(99),
              static_cast<unsigned long long>(report->worker_lifetimes),
              static_cast<unsigned long long>(report->checkpoints),
              report->Digest());
  if (options.faults.Active()) {
    PrintFaultLine(report->faults);
  }
  for (const auto& [function, function_report] : report->per_function) {
    std::printf("  %-24s p50_us=%9.0f checkpoints=%4llu restores=%4llu\n",
                function.c_str(), function_report.LatencySummary().Median(),
                static_cast<unsigned long long>(function_report.checkpoints),
                static_cast<unsigned long long>(function_report.restores));
  }
  if (Status s = ExportObs(flags, *report); !s.ok()) {
    return Fail(s);
  }
  return 0;
}

int RunSingle(const FlagParser& flags, SimOptions options, uint64_t requests) {
  const std::string benchmark = *flags.GetString("benchmark");
  auto profile = WorkloadRegistry::Default().Find(benchmark);
  if (!profile.ok()) {
    return Fail(profile.status());
  }

  auto config = MakeConfig(**profile, flags, EvictionK(options.eviction));
  if (!config.ok()) {
    return Fail(config.status());
  }

  auto policy = PolicyFromFlags(flags, *config);
  if (!policy.ok()) {
    return Fail(policy.status());
  }

  // Single-function topology: one worker slot.
  options.worker_slots = 1;
  options.exploring_slots = 1;

  SimFunctionSpec spec;
  spec.name = benchmark;
  spec.profile = *profile;
  spec.policy = policy->get();
  spec.requests = requests;

  const std::unique_ptr<StandardObs> obs = MakeObsSink(flags);
  auto report = Simulate(WorkloadRegistry::Default(), SimTopology::kSingle,
                         std::span<const SimFunctionSpec>(&spec, 1), options,
                         obs.get());
  if (!report.ok()) {
    return Fail(report.status());
  }

  std::printf("%s policy=%s eviction=%s\n%s\n", benchmark.c_str(),
              flags.GetString("policy")->c_str(), flags.GetString("eviction")->c_str(),
              SummarizeReport(report->flat()).c_str());

  const std::string csv_path = *flags.GetString("csv");
  if (!csv_path.empty()) {
    if (Status s = WriteRecordsCsv(report->flat(), csv_path); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %zu records to %s\n", report->flat().records.size(),
                csv_path.c_str());
  }
  const std::string summary_path = *flags.GetString("summary-csv");
  if (!summary_path.empty()) {
    if (Status s = WriteSummaryCsv(report->flat(), summary_path); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote summary to %s\n", summary_path.c_str());
  }
  if (Status s = ExportObs(flags, *report); !s.ok()) {
    return Fail(s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("benchmark", "DynamicHTML", "workload name (see --list)");
  flags.AddFlag("policy", "request-centric",
                "cold | after-first | request-centric | stop-condition");
  flags.AddFlag("eviction", "1", "k | geometric:<mean> | idle:<seconds>");
  flags.AddFlag("requests", "500", "number of invocations (per function in fleet mode)");
  flags.AddFlag("seed", "42", "experiment seed");
  flags.AddFlag("beta", "0", "policy beta (0 = derive from eviction k)");
  flags.AddFlag("pool", "12", "snapshot pool capacity C");
  flags.AddFlag("w", "0", "max checkpoint request W (0 = per-family default)");
  flags.AddFlag("explore-budget", "0",
                "stop-condition: freeze after this many requests (0 = W+100)");
  flags.AddFlag("engine", "criu", "checkpoint engine: criu | delta");
  flags.AddFlag("fleet", "0",
                "deploy this many functions (cycling the evaluation set) and run "
                "them as parallel shards; 0 = single-function mode");
  flags.AddFlag("platform", "0",
                "deploy this many evaluation functions into one shared control "
                "plane and run a closed loop; 0 = single-function mode");
  flags.AddFlag("threads", "0",
                "fleet shard threads (0 = hardware concurrency); results are "
                "bit-identical for any value");
  flags.AddFlag("slots", "4", "fleet: worker slots per function");
  flags.AddFlag("exploring", "1", "fleet: exploring slots per function");
  flags.AddFlag("csv", "", "write per-request records to this CSV file");
  flags.AddFlag("summary-csv", "",
                "single mode: write key,value summary (incl. fault/recovery "
                "counters) to this CSV file");
  flags.AddFlag("trace-out", "",
                "write worker-lifecycle spans as Chrome trace JSON to this file "
                "(open in chrome://tracing)");
  flags.AddFlag("metrics-out", "",
                "write counters/gauges/histograms as JSON to this file");
  flags.AddFlag("fault-rate", "0",
                "transient failure probability per store/db op, in [0,1]");
  flags.AddFlag("fault-corrupt", "0",
                "probability a stored blob gets one bit flipped, in [0,1]");
  flags.AddFlag("fault-torn", "0",
                "probability a put is torn (half-written + failed), in [0,1]");
  flags.AddFlag("fault-outage", "",
                "outage windows 'start:end[@store|db]' in seconds, comma-separated");
  flags.AddFlag("fault-latency", "",
                "latency spikes 'start:end:ms' (seconds, extra ms), comma-separated");
  flags.AddFlag("fault-seed", "0", "extra seed folded into the fault streams");
  flags.AddFlag("fault-chunk-corrupt", "0",
                "dedup store: probability a stored chunk gets one bit flipped "
                "after a successful put, in [0,1]");
  flags.AddFlag("fault-manifest-corrupt", "0",
                "dedup store: probability a snapshot manifest gets one bit "
                "flipped after a successful put, in [0,1]");
  flags.AddFlag("store", "flat",
                "snapshot store build: flat (compatibility adapter over the "
                "object store) | dedup (content-addressed chunks; digests are "
                "bit-identical either way)");
  flags.AddFlag("chunk-size", "4096",
                "dedup store: fixed cut size / CDC target average, in bytes");
  flags.AddSwitch("cdc",
                  "dedup store: content-defined chunk boundaries (Gear rolling "
                  "hash) instead of fixed-size cuts");
  flags.AddSwitch("lazy-restore",
                  "dedup store: record-then-prefetch restores (REAP-style); "
                  "digest-neutral, changes only physical fetch counters");
  flags.AddSwitch("service",
                  "run the live orchestrator service: all worker-lifecycle "
                  "operations go over its wire format (digest-neutral)");
  flags.AddFlag("service-shards", "4", "service mode: shard threads");
  flags.AddFlag("service-batch", "16",
                "service mode: deferred observations per group-commit batch");
  flags.AddFlag("flush-interval", "5",
                "service mode: max simulated-time age (ms) of a deferred "
                "observation before its batch flushes");
  flags.AddFlag("journal-dir", "",
                "service mode: directory for per-slot write-ahead observation "
                "journals (created if missing; empty disables journaling)");
  flags.AddFlag("shed-deadline", "0",
                "service mode: host-time budget (ms) for enqueueing a start "
                "decision before it is shed with kResourceExhausted; 0 blocks");
  flags.AddFlag("crash-plan", "",
                "service mode: scheduled shard crashes 'shard:op:stage', "
                "comma-separated; stage is enqueue, mid-batch, or pre-truncate "
                "(errors if a named shard does not exist)");
  flags.AddFlag("stall-plan", "",
                "service mode: scheduled shard stalls 'shard:op:wall_ms', "
                "comma-separated");
  flags.AddFlag("retention", "all",
                "fleet mode: per-function detail kept in the merged report — "
                "all (bit-identical to collect-then-merge) | top-latency "
                "(K slowest by median) | reservoir (deterministic K-sample); "
                "digests cover ALL functions in every mode");
  flags.AddFlag("retention-k", "64",
                "fleet mode: per-function reports kept under a bounded "
                "--retention mode");
  flags.AddFlag("arrival-mix", "steady",
                "fleet mode: request-volume mix across deployments — steady "
                "(homogeneous) | diurnal | bursty | multi-tenant");
  flags.AddFlag("sim-checkpoint-dir", "",
                "write crash-consistent simulation checkpoints to this "
                "directory (created if missing; empty disables)");
  flags.AddFlag("sim-checkpoint-every", "1",
                "fleet mode: completed deployments between checkpoint frames");
  flags.AddSwitch("resume",
                  "resume from the checkpoint in --sim-checkpoint-dir (same "
                  "experiment only; digest matches an uninterrupted run)");
  flags.AddSwitch("histogram", "print latency histograms to stdout");
  flags.AddSwitch("no-noise", "disable client input-size noise");
  flags.AddSwitch("no-state-cache",
                  "disable the decoded policy-state cache (digest-neutral)");
  flags.AddSwitch("list", "list benchmarks and exit");
  flags.AddSwitch("help", "show usage");

  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.UsageText("pronghorn_sim").c_str());
    return 2;
  }
  if (!flags.positional().empty()) {
    // Everything pronghorn_sim understands is a flag; a stray positional is a
    // typo (e.g. a value that lost its `--name`) and must not be ignored.
    std::fprintf(stderr, "error: unexpected argument '%s'\n%s",
                 flags.positional().front().c_str(),
                 flags.UsageText("pronghorn_sim").c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.UsageText("pronghorn_sim").c_str());
    return 0;
  }
  if (flags.GetBool("list").value_or(false)) {
    for (const auto& p : WorkloadRegistry::Default().profiles()) {
      std::printf("%-14s %-5s %s%s\n", p.name.c_str(),
                  std::string(RuntimeFamilyName(p.family)).c_str(),
                  p.io_bound ? "io-bound" : "compute-bound",
                  p.auxiliary ? " (auxiliary)" : "");
    }
    return 0;
  }

  auto requests = flags.GetInt("requests");
  auto seed = flags.GetInt("seed");
  if (!requests.ok() || !seed.ok() || *requests <= 0) {
    return Fail(InvalidArgumentError("--requests and --seed must be positive ints"));
  }
  auto options = ParseSimOptions(flags);
  if (!options.ok()) {
    return Fail(options.status());
  }

  auto fleet_size = flags.GetInt("fleet");
  auto platform_size = flags.GetInt("platform");
  if (!fleet_size.ok() || *fleet_size < 0 || !platform_size.ok() ||
      *platform_size < 0) {
    return Fail(InvalidArgumentError("--fleet and --platform must be non-negative"));
  }
  if (*fleet_size > 0 && *platform_size > 0) {
    return Fail(InvalidArgumentError("--fleet and --platform are mutually exclusive"));
  }
  if (options->retention.mode != ReportRetention::kAll && *fleet_size == 0) {
    return Fail(InvalidArgumentError(
        "--retention modes other than 'all' apply to --fleet runs"));
  }
  if (*fleet_size > 0) {
    return RunFleet(flags, *std::move(options), static_cast<uint64_t>(*requests));
  }
  if (*platform_size > 0) {
    return RunPlatform(flags, *options, static_cast<uint64_t>(*requests));
  }
  return RunSingle(flags, *std::move(options), static_cast<uint64_t>(*requests));
}
