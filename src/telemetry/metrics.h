// Metric registry: the hub of the telemetry layer.
//
// A MetricRegistry bundles
//   - typed Counter / Gauge handles (pointer-stable: registration returns a
//     reference that stays valid for the registry's lifetime, so hot paths
//     pay a member add per increment, never a name lookup),
//   - snapshot copies of util::Histograms (latency distributions),
//   - a Timeline of probe time series (PCM bandwidth, vmstat, daemon state),
//   - a TraceBuffer of spans for Chrome trace export.
//
// Concurrency model: a registry is single-writer. Under the sweep runner
// every cell writes into its *own* registry and the bench merges them in
// cell-index order afterwards (MergeFrom with a per-cell prefix), which keeps
// the merged output deterministic for any --jobs value. Telemetry is additive
// and off by default: components take a nullable MetricRegistry* and must not
// change simulation behaviour when it is null or attached.
#ifndef CXL_EXPLORER_SRC_TELEMETRY_METRICS_H_
#define CXL_EXPLORER_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/telemetry/events.h"
#include "src/telemetry/timeline.h"
#include "src/telemetry/trace.h"
#include "src/util/histogram.h"

namespace cxl::telemetry {

// Monotonically increasing count (events, pages, ops).
class Counter {
 public:
  void Add(uint64_t n) { value_ += n; }
  void Increment() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Last-written instantaneous value (bandwidth, threshold, share).
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    set_ = true;
  }
  double value() const { return value_; }
  bool set() const { return set_; }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(MetricRegistry&&) = default;
  MetricRegistry& operator=(MetricRegistry&&) = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Get-or-create. References stay valid for the registry's lifetime
  // (handles live behind unique_ptr, unaffected by later registrations).
  // Heterogeneous lookup: string_view/literal callers allocate only on the
  // first (creating) call for a given name.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);

  // Records a snapshot of `h` under `name`; merges when the name repeats
  // (bucket layouts must match, as with Histogram::Merge).
  void RecordHistogram(std::string_view name, const Histogram& h);

  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  // Folds `other` into this registry with every name (and trace track)
  // prefixed: counters add, gauges take the incoming value, histograms
  // merge, series and trace events append. Benches merge per-cell
  // registries in cell-index order, making the result independent of the
  // sweep's thread count and completion order.
  void MergeFrom(const MetricRegistry& other, const std::string& prefix = "");

  const std::map<std::string, std::unique_ptr<Counter>, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const { return histograms_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && timeline_.empty() &&
           trace_.empty() && events_.empty();
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  Timeline timeline_;
  TraceBuffer trace_;
  EventLog events_;
};

}  // namespace cxl::telemetry

#endif  // CXL_EXPLORER_SRC_TELEMETRY_METRICS_H_
