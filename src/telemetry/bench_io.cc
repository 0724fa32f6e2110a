#include "src/telemetry/bench_io.h"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/telemetry/export.h"

namespace cxl::telemetry {

void BenchTelemetry::RecordSweep(const std::string& name, const runner::SweepStats& stats) {
  last_sweep_ = stats;
  have_sweep_ = true;
  if (!enabled()) {
    return;
  }
  const std::string prefix = "sweep." + name + ".";
  registry_.GetGauge(prefix + "cells").Set(static_cast<double>(stats.cells));
  registry_.GetGauge(prefix + "jobs").Set(stats.jobs);
  registry_.GetGauge(prefix + "wall_ms").Set(stats.wall_ms);
  registry_.GetGauge(prefix + "serial_ms").Set(stats.serial_ms);
  registry_.GetGauge(prefix + "max_cell_ms").Set(stats.max_cell_ms);
  registry_.GetGauge(prefix + "speedup").Set(stats.Speedup());
  const TraceBuffer::TrackId track = registry_.trace().Track("sweep/" + name);
  for (const auto& record : stats.cell_records) {
    registry_.trace().Span(track, record.label, record.start_ms, record.ms);
  }
}

bool BenchTelemetry::Write(const std::string& bench_name) {
  auto write_file = [&](const std::string& path, auto&& writer) {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "telemetry: cannot open " << path << "\n";
      return false;
    }
    writer(os);
    os.flush();
    if (!os) {
      std::cerr << "telemetry: write failed for " << path << "\n";
      return false;
    }
    return true;
  };

  bool ok = true;
  const std::string& metrics_path = outputs_.metrics_path;
  if (!metrics_path.empty()) {
    const bool csv = metrics_path.size() >= 4 &&
                     metrics_path.compare(metrics_path.size() - 4, 4, ".csv") == 0;
    ok &= write_file(metrics_path, [&](std::ostream& os) {
      csv ? WriteMetricsCsv(os, registry_) : WriteMetricsJson(os, registry_);
    });
  }
  if (!outputs_.trace_path.empty()) {
    ok &= write_file(outputs_.trace_path,
                     [&](std::ostream& os) { WriteChromeTrace(os, registry_); });
  }
  if (!outputs_.events_path.empty()) {
    ok &= write_file(outputs_.events_path,
                     [&](std::ostream& os) { WriteEventsJsonl(os, registry_); });
  }
  if (!outputs_.bench_json_path.empty()) {
    const double wall_ms =
        have_sweep_ ? last_sweep_.wall_ms
                    : std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                                created_)
                          .count();
    const size_t cells = have_sweep_ ? last_sweep_.cells : 0;
    const int jobs = have_sweep_ ? last_sweep_.jobs : 1;
    const double speedup = have_sweep_ ? last_sweep_.Speedup() : 1.0;
    ok &= write_file(outputs_.bench_json_path, [&](std::ostream& os) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", wall_ms);
      os << "{\"bench\": \"" << JsonEscape(bench_name) << "\", \"cells\": " << cells
         << ", \"jobs\": " << jobs << ", \"wall_ms\": " << buf;
      std::snprintf(buf, sizeof(buf), "%.2f", speedup);
      os << ", \"speedup\": " << buf << "}\n";
    });
  }
  return ok;
}

}  // namespace cxl::telemetry
