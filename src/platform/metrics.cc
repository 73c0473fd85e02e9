#include "src/platform/metrics.h"

#include <utility>

namespace pronghorn {

DistributionSummary SimulationReport::LatencySummary() const {
  DistributionSummary summary;
  for (const RequestRecord& record : records) {
    summary.Add(static_cast<double>(record.latency.ToMicros()));
  }
  return summary;
}

DistributionSummary SimulationReport::LatencySummaryForMaturity(uint64_t lo,
                                                                uint64_t hi) const {
  DistributionSummary summary;
  for (const RequestRecord& record : records) {
    if (record.request_number >= lo && record.request_number <= hi) {
      summary.Add(static_cast<double>(record.latency.ToMicros()));
    }
  }
  return summary;
}

double SimulationReport::MedianLatencyUs() const { return LatencySummary().Median(); }

void SimReport::AddFunction(std::string name, SimulationReport report) {
  for (const RequestRecord& record : report.records) {
    latency.Add(static_cast<double>(record.latency.ToMicros()));
    latency_hist.Add(static_cast<uint64_t>(record.latency.ToMicros()));
  }
  worker_lifetimes += report.worker_lifetimes;
  checkpoints += report.checkpoints;
  restores += report.restores;
  cold_starts += report.cold_starts;
  functions_total += 1;
  invocations_total += report.records.size();
  per_function.push_back(SimFunctionResult{std::move(name), std::move(report)});
}

const SimulationReport* SimReport::Find(std::string_view name) const {
  for (const SimFunctionResult& result : per_function) {
    if (result.function == name) {
      return &result.report;
    }
  }
  return nullptr;
}

void MergeAccounting(StoreAccounting& into, const StoreAccounting& from) {
  into.logical_bytes_stored += from.logical_bytes_stored;
  into.peak_logical_bytes += from.peak_logical_bytes;
  into.network_bytes_uploaded += from.network_bytes_uploaded;
  into.network_bytes_downloaded += from.network_bytes_downloaded;
  into.put_count += from.put_count;
  into.get_count += from.get_count;
  into.delete_count += from.delete_count;
  // Digest-excluded physical view: sums like the logical fields above (peaks
  // sum because shard-local stores coexist in time).
  into.physical.bytes_stored += from.physical.bytes_stored;
  into.physical.peak_bytes += from.physical.peak_bytes;
  into.physical.flat_bytes_stored += from.physical.flat_bytes_stored;
  into.physical.peak_flat_bytes += from.physical.peak_flat_bytes;
  into.physical.chunks_stored += from.physical.chunks_stored;
  into.physical.chunk_refs += from.physical.chunk_refs;
  into.physical.dedup_hits += from.physical.dedup_hits;
  into.physical.dedup_bytes_saved += from.physical.dedup_bytes_saved;
  into.physical.delta_bytes_shared += from.physical.delta_bytes_shared;
  into.physical.chunks_fetched += from.physical.chunks_fetched;
  into.physical.bytes_fetched += from.physical.bytes_fetched;
  into.physical.chunks_prefetched += from.physical.chunks_prefetched;
  into.physical.demand_faults += from.physical.demand_faults;
  into.physical.cache_hits += from.physical.cache_hits;
  into.physical.chunks_collected += from.physical.chunks_collected;
  into.physical.bytes_collected += from.physical.bytes_collected;
}

void MergeAccounting(KvAccounting& into, const KvAccounting& from) {
  into.reads += from.reads;
  into.writes += from.writes;
  into.cas_attempts += from.cas_attempts;
  into.cas_conflicts += from.cas_conflicts;
}

void MergeOverheads(OrchestratorOverheads& into, const OrchestratorOverheads& from) {
  into.worker_starts += from.worker_starts;
  into.requests_served += from.requests_served;
  into.checkpoints_taken += from.checkpoints_taken;
  into.total_startup_overhead += from.total_startup_overhead;
  into.total_request_overhead += from.total_request_overhead;
  into.total_checkpoint_overhead += from.total_checkpoint_overhead;
}

void MergeFaultRecoveryStats(FaultRecoveryStats& into, const FaultRecoveryStats& from) {
  into.store_faults += from.store_faults;
  into.db_faults += from.db_faults;
  into.corrupted_puts += from.corrupted_puts;
  into.torn_puts += from.torn_puts;
  into.latency_injections += from.latency_injections;
  into.restore_retries += from.restore_retries;
  into.restore_failures += from.restore_failures;
  into.restore_fallbacks += from.restore_fallbacks;
  into.snapshots_quarantined += from.snapshots_quarantined;
  into.stale_entries_pruned += from.stale_entries_pruned;
  into.degraded_starts += from.degraded_starts;
  into.observations_buffered += from.observations_buffered;
  into.observations_replayed += from.observations_replayed;
  into.observations_dropped += from.observations_dropped;
  into.checkpoints_skipped += from.checkpoints_skipped;
  into.eviction_deletes_deferred += from.eviction_deletes_deferred;
  into.orphans_collected += from.orphans_collected;
  into.cas_attempts += from.cas_attempts;
  into.cas_conflicts += from.cas_conflicts;
  into.db_transient_retries += from.db_transient_retries;
}

void AccumulateStoreFaults(FaultRecoveryStats& into, const FaultInjectionStats& from) {
  into.store_faults += from.faults_injected;
  into.corrupted_puts += from.corrupted_puts;
  into.torn_puts += from.torn_puts;
  into.latency_injections += from.latency_injections;
}

void AccumulateDatabaseFaults(FaultRecoveryStats& into, const FaultInjectionStats& from) {
  into.db_faults += from.faults_injected;
  into.latency_injections += from.latency_injections;
}

void AccumulateRecovery(FaultRecoveryStats& into, const RecoveryStats& from) {
  into.restore_retries += from.restore_transient_retries;
  into.restore_failures += from.restore_attempt_failures;
  into.restore_fallbacks += from.restore_fallbacks;
  into.snapshots_quarantined += from.snapshots_quarantined;
  into.stale_entries_pruned += from.stale_entries_pruned;
  into.degraded_starts += from.degraded_starts;
  into.observations_buffered += from.observations_buffered;
  into.observations_replayed += from.observations_replayed;
  into.observations_dropped += from.observations_dropped;
  into.checkpoints_skipped += from.checkpoints_skipped;
  into.eviction_deletes_deferred += from.eviction_deletes_deferred;
  into.orphans_collected += from.orphans_collected;
}

void AccumulateStateStore(FaultRecoveryStats& into, const StateStoreStats& from) {
  into.cas_attempts += from.cas_attempts;
  into.cas_conflicts += from.cas_conflicts;
  into.db_transient_retries += from.transient_retries;
}

}  // namespace pronghorn
