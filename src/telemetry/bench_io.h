// Bench-side telemetry plumbing: the outputs behind the --metrics-out /
// --trace-out / --bench-json / --events-out / --events-ring flags that
// bench::Context parses for every bench_* binary, plus sweep-stat recording.
//
// Usage in a bench main (through bench::Context, which builds this object):
//
//   auto& telemetry = ctx.telemetry();
//   ...per cell: MetricRegistry cell; telemetry.ConfigureSink(&cell); ...
//   runner::SweepStats stats;
//   auto grid = runner::RunSweep(cells, fn, sweep_options, &stats);
//   telemetry.RecordSweep("fig5", stats);
//   ... merge per-cell registries into telemetry.registry() ...
//   if (!telemetry.Write("bench_fig5_keydb_ycsb")) return 1;
//
// Telemetry is additive: with no outputs requested, sink() is null, nothing
// is recorded, and nothing is written — stdout stays byte-identical.
#ifndef CXL_EXPLORER_SRC_TELEMETRY_BENCH_IO_H_
#define CXL_EXPLORER_SRC_TELEMETRY_BENCH_IO_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "src/runner/sweep.h"
#include "src/telemetry/metrics.h"

namespace cxl::telemetry {

class BenchTelemetry {
 public:
  // The requested outputs; an empty path is not written.
  struct Outputs {
    std::string metrics_path;
    std::string trace_path;
    std::string bench_json_path;
    std::string events_path;
    uint64_t events_ring = 0;  // 0 = unbounded (full-log mode).
  };

  BenchTelemetry() = default;
  explicit BenchTelemetry(Outputs outputs) : outputs_(std::move(outputs)) {}

  // True when any output was requested.
  bool enabled() const {
    return !outputs_.metrics_path.empty() || !outputs_.trace_path.empty() ||
           !outputs_.bench_json_path.empty() || !outputs_.events_path.empty();
  }

  // The registry to emit into, or nullptr when telemetry is off — pass
  // straight to the nullable sinks the simulation layers take.
  MetricRegistry* sink() { return enabled() ? &registry_ : nullptr; }
  MetricRegistry& registry() { return registry_; }

  // Applies the requested event-log mode to a per-cell registry:
  // --events-ring N caps the cell's log at the most recent N events
  // (flight-recorder mode); the default keeps the full log. Call before
  // the cell simulates. No-op on nullptr, so benches can pass their
  // per-cell sink unconditionally. The master registry stays unbounded so
  // a merged file retains every cell's (possibly ring-truncated) tail.
  void ConfigureSink(MetricRegistry* registry) const {
    if (registry != nullptr && outputs_.events_ring > 0) {
      registry->events().set_capacity(outputs_.events_ring);
    }
  }

  // Records one sweep: gauges sweep.<name>.{cells,jobs,wall_ms,serial_ms,
  // max_cell_ms,speedup} plus one span per cell record on track
  // "sweep/<name>" (wall-clock offsets — the parallel schedule). Also feeds
  // the --bench-json summary. No-op when telemetry is off.
  void RecordSweep(const std::string& name, const runner::SweepStats& stats);

  // Writes whichever outputs were requested. --metrics-out writes CSV when
  // the path ends in ".csv", JSON otherwise; --trace-out writes Chrome
  // trace-event JSON; --events-out writes the structured event log as
  // JSONL (schema cxl-events-v1); --bench-json writes
  // {bench,cells,jobs,wall_ms,speedup} (wall_ms falls back to this
  // object's lifetime when no sweep was recorded). Returns false (after
  // printing to stderr) on I/O failure.
  bool Write(const std::string& bench_name);

  const Outputs& outputs() const { return outputs_; }

 private:
  Outputs outputs_;
  MetricRegistry registry_;
  runner::SweepStats last_sweep_;
  bool have_sweep_ = false;
  std::chrono::steady_clock::time_point created_ = std::chrono::steady_clock::now();
};

}  // namespace cxl::telemetry

#endif  // CXL_EXPLORER_SRC_TELEMETRY_BENCH_IO_H_
