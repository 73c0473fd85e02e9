// Experiment metrics: per-request records plus platform counters.

#ifndef PRONGHORN_SRC_PLATFORM_METRICS_H_
#define PRONGHORN_SRC_PLATFORM_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/core/orchestrator.h"
#include "src/obs/metrics.h"
#include "src/platform/sim_options.h"
#include "src/store/fault_injection.h"
#include "src/store/kv_database.h"
#include "src/store/object_store.h"

namespace pronghorn {

class TraceRecorder;  // src/obs/trace.h.

// Flattened fault-and-recovery accounting for one deployment (or a merged
// fleet): what the chaos layer injected and what the recovery machinery did
// about it. All fields are sums, so shard merges commute.
struct FaultRecoveryStats {
  // Injected by the fault layer.
  uint64_t store_faults = 0;  // Object-store ops failed (coin flip or outage).
  uint64_t db_faults = 0;     // Database ops failed.
  uint64_t corrupted_puts = 0;
  uint64_t torn_puts = 0;
  uint64_t latency_injections = 0;
  // Recovery behavior (orchestrator side).
  uint64_t restore_retries = 0;
  uint64_t restore_failures = 0;
  uint64_t restore_fallbacks = 0;
  uint64_t snapshots_quarantined = 0;
  uint64_t stale_entries_pruned = 0;
  uint64_t degraded_starts = 0;
  uint64_t observations_buffered = 0;
  uint64_t observations_replayed = 0;
  uint64_t observations_dropped = 0;
  uint64_t checkpoints_skipped = 0;
  uint64_t eviction_deletes_deferred = 0;
  uint64_t orphans_collected = 0;
  // Recovery behavior (state-store side).
  uint64_t cas_attempts = 0;
  uint64_t cas_conflicts = 0;
  uint64_t db_transient_retries = 0;
};

void MergeFaultRecoveryStats(FaultRecoveryStats& into, const FaultRecoveryStats& from);

// Fold one component's counters into the flattened report row.
void AccumulateStoreFaults(FaultRecoveryStats& into, const FaultInjectionStats& from);
void AccumulateDatabaseFaults(FaultRecoveryStats& into, const FaultInjectionStats& from);
void AccumulateRecovery(FaultRecoveryStats& into, const RecoveryStats& from);
void AccumulateStateStore(FaultRecoveryStats& into, const StateStoreStats& from);

// One row per served request (the raw data behind every figure).
struct RequestRecord {
  // 0-based index within the experiment's request stream.
  uint64_t global_index = 0;
  // JIT maturity index of the request (1 = first request since cold start).
  uint64_t request_number = 0;
  // User-visible end-to-end latency.
  Duration latency;
  // True when this request was the first served by a fresh worker.
  bool first_of_lifetime = false;
  // True when the fresh worker was a cold start (vs snapshot restore).
  bool cold_start = false;
  // True when a checkpoint was taken right after this request.
  bool checkpoint_after = false;
};

// The environment-level accounting shared by both report types: what the
// stores did and what the chaos layer injected. A single-deployment flat
// report (SimulationReport) folds it in; a run report (SimReport) carries it
// once next to its per-function rows. Serialization, digest, and merge
// helpers for this core live in report_io so they are defined exactly once.
struct ReportCore {
  StoreAccounting object_store;
  KvAccounting database;
  FaultRecoveryStats faults;
};

// Everything one deployment reports. One struct serves every topology: a
// single-slot run, a multi-slot deployment, one function of a shared
// platform, or one shard of a fleet — they all accumulate the same rows
// through the shared kernel (sim_core.h).
struct SimulationReport : ReportCore {
  std::vector<RequestRecord> records;
  // Latency split by slot role (§5.3 amortization): samples from exploring
  // slots vs frozen exploit-only slots. Single-slot runs put everything in
  // exploring_latency.
  DistributionSummary exploring_latency;
  DistributionSummary exploiting_latency;

  uint64_t worker_lifetimes = 0;
  uint64_t cold_starts = 0;
  uint64_t restores = 0;
  uint64_t checkpoints = 0;

  Duration total_checkpoint_downtime;
  Duration total_startup_latency;  // Cold init + restore + image download.
  // Wall-clock time workers spent provisioned (start to eviction), and the
  // memory they held over that time — the provider-side cost that keep-alive
  // strategies trade against latency (§7 related work).
  Duration total_worker_alive_time;
  double worker_memory_time_mb_s = 0.0;
  TimePoint end_time;

  OrchestratorOverheads overheads;

  // Latency distribution over all records.
  DistributionSummary LatencySummary() const;
  // Latency distribution over records with request_number in [lo, hi].
  DistributionSummary LatencySummaryForMaturity(uint64_t lo, uint64_t hi) const;
  // Median latency in microseconds (the paper's headline comparator).
  double MedianLatencyUs() const;
};

// The flattened single-deployment report (per-function body plus the
// environment-wide accountings folded in). The name the report serializers
// and the streaming fold use for it.
using ClusterReport = SimulationReport;

struct SimFunctionResult {
  std::string function;
  SimulationReport report;
};

// The one run report: per-function reports in canonical (name) order, merged
// latency and lifecycle counters, the environment-wide store/fault
// accounting (ReportCore), and — when a sink was attached — the harvested
// metrics snapshot and a borrowed trace handle. Simulate() returns it for
// every topology; SimEnvironment::TakeReport() returns it for incremental
// runs.
struct SimReport : ReportCore {
  std::vector<SimFunctionResult> per_function;  // Sorted by function name.

  // Every request latency across all retained functions, merged in
  // canonical order.
  DistributionSummary latency;

  uint64_t worker_lifetimes = 0;
  uint64_t checkpoints = 0;
  uint64_t restores = 0;
  uint64_t cold_starts = 0;

  // How much per-function detail this report retains (always kAll except
  // for a kFleet run with bounded options.retention), and the totals over
  // ALL simulated functions — which per_function.size() and `latency`
  // understate under the bounded fleet modes.
  ReportRetention retention = ReportRetention::kAll;
  uint64_t functions_total = 0;
  uint64_t invocations_total = 0;

  // Exact-merge latency histogram over every request of every function,
  // complete in all retention modes (unlike `latency`, which needs the full
  // per-function record bodies).
  LatencyHistogram latency_hist;

  // The canonical digest as maintained by the streaming fold — equal to
  // ReportDigest over ALL simulated functions even when per_function was
  // decimated by a bounded retention mode.
  uint32_t streaming_digest = 0;

  // Counters / gauges / histograms harvested from the sink at the end of the
  // run; empty when no sink was attached (or the sink keeps no metrics).
  MetricsSnapshot metrics;
  // The sink's trace recorder, borrowed — valid while the sink outlives the
  // report; nullptr when tracing was off. Never feeds Digest().
  const TraceRecorder* trace = nullptr;

  // CRC32 over the canonical serialization (report_io's ReportDigest): every
  // per-function report in name order followed by the shared core. Under
  // bounded retention the rows are incomplete, so this returns
  // `streaming_digest`. Observability data (metrics, trace) is excluded by
  // construction.
  uint32_t Digest() const;

  // Appends one function's report and folds it into the merged latency
  // views and counters. Callers add functions in name order.
  void AddFunction(std::string name, SimulationReport report);

  // Per-function lookup; nullptr when `name` is not in the run.
  const SimulationReport* Find(std::string_view name) const;

  // Single-function flattened view (kSingle). Requires at least one function.
  const SimulationReport& flat() const { return per_function.front().report; }
};

// Accounting merges for sharded runs. Every field is a sum — including the
// store peak, because shard-local stores coexist in time, so the fleet's
// footprint bound is the sum of per-store high-water marks. Sums commute, so
// folding shard accountings in any order yields the same totals; the fleet
// merge still folds in canonical (name) order for bit-stable reports.
void MergeAccounting(StoreAccounting& into, const StoreAccounting& from);
void MergeAccounting(KvAccounting& into, const KvAccounting& from);

// Sums one orchestrator's control-plane overheads into a report row; used to
// fold a deployment's worker slots into its SimulationReport.
void MergeOverheads(OrchestratorOverheads& into, const OrchestratorOverheads& from);

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_PLATFORM_METRICS_H_
