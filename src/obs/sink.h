// ObsSink: the single seam between the simulation kernel and observability.
//
// Instrumentation sites throughout SimCore / SimEnvironment / Orchestrator /
// the checkpoint engines / the fault decorators hold a raw `ObsSink*` that is
// null by default. Every emission is guarded by that null check, so a
// simulation without observability pays one pointer compare per site and
// allocates nothing — the zero-cost-when-disabled contract.
//
// The sink is intentionally narrow: counters, gauges, latency observations,
// spans, and instants, plus track registration. It deliberately has no
// accessor for simulated time or randomness — observability is write-only
// from the kernel's perspective, so nothing emitted here can flow back into
// digest-covered state.

#ifndef PRONGHORN_SRC_OBS_SINK_H_
#define PRONGHORN_SRC_OBS_SINK_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pronghorn {

// A (pid, tid) pair identifying one lane in the trace. pid groups lanes (one
// process per deployment); tid separates concurrent activities within it
// (worker slots, the control plane).
struct ObsTrack {
  uint32_t pid = 0;
  uint32_t tid = 0;
};

// Abstract observability sink. All methods must be thread-safe: fleet shards
// emit concurrently into one sink.
class ObsSink {
 public:
  virtual ~ObsSink() = default;

  // Allocates a fresh pid and names it (e.g. one per deployment).
  virtual uint32_t RegisterProcess(std::string_view name) = 0;
  // Names a lane within an existing pid (e.g. "slot 0", "control").
  virtual void RegisterThread(ObsTrack track, std::string_view name) = 0;

  virtual void Counter(std::string_view name, uint64_t delta) = 0;
  virtual void Gauge(std::string_view name, double value) = 0;
  // Records one latency sample into the named histogram.
  virtual void Observe(std::string_view histogram, Duration value) = 0;

  // A complete span on `track`, [begin, begin + duration) in simulated time.
  virtual void Span(ObsTrack track, std::string_view name,
                    std::string_view category, TimePoint begin,
                    Duration duration) = 0;
  // A zero-duration event on `track` at `at` in simulated time.
  virtual void Instant(ObsTrack track, std::string_view name,
                       std::string_view category, TimePoint at) = 0;

  // Harvest hooks for Simulate(): sinks that aggregate metrics or record a
  // trace expose them here so SimReport can carry the results. The defaults
  // (empty snapshot, no trace) suit pure-forwarding or discarding sinks.
  virtual MetricsSnapshot SnapshotMetrics() const { return MetricsSnapshot{}; }
  virtual const TraceRecorder* trace_recorder() const { return nullptr; }
};

// The standard sink: a MetricsRegistry plus a TraceRecorder. Either half can
// be disabled (metrics-only runs skip the ring buffer; trace-only runs skip
// the registry maps) — both halves enabled is the common case for
// `pronghorn_sim --trace-out --metrics-out`.
class StandardObs : public ObsSink {
 public:
  struct Options {
    bool metrics = true;
    bool trace = true;
    size_t trace_capacity = TraceRecorder::kDefaultCapacity;
  };

  StandardObs();
  explicit StandardObs(Options options);

  uint32_t RegisterProcess(std::string_view name) override;
  void RegisterThread(ObsTrack track, std::string_view name) override;
  void Counter(std::string_view name, uint64_t delta) override;
  void Gauge(std::string_view name, double value) override;
  void Observe(std::string_view histogram, Duration value) override;
  void Span(ObsTrack track, std::string_view name, std::string_view category,
            TimePoint begin, Duration duration) override;
  void Instant(ObsTrack track, std::string_view name,
               std::string_view category, TimePoint at) override;

  MetricsSnapshot SnapshotMetrics() const override { return metrics_.Snapshot(); }
  const TraceRecorder* trace_recorder() const override {
    return options_.trace ? &trace_ : nullptr;
  }

  const MetricsRegistry& metrics() const { return metrics_; }
  const TraceRecorder& trace() const { return trace_; }

 private:
  const Options options_;
  std::atomic<uint32_t> next_pid_{1};
  MetricsRegistry metrics_;
  TraceRecorder trace_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_OBS_SINK_H_
