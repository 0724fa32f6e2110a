// Exporters: metrics to JSON / CSV, spans + series to Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing). Output is deterministic
// for a deterministic registry: maps iterate in name order, series keep
// append order. See docs/telemetry.md for the schemas.
#ifndef CXL_EXPLORER_SRC_TELEMETRY_EXPORT_H_
#define CXL_EXPLORER_SRC_TELEMETRY_EXPORT_H_

#include <ostream>
#include <string>

#include "src/telemetry/metrics.h"

namespace cxl::telemetry {

// {"schema":"cxl-telemetry-v1","counters":{...},"gauges":{...},
//  "histograms":{name:{count,mean,min,max,p50,p90,p95,p99,p999}},
//  "series":{name:[[t_ms,value],...]}}
void WriteMetricsJson(std::ostream& os, const MetricRegistry& registry);

// Long format, one row per datum: kind,name,t_ms,value (t_ms empty for
// counters/gauges/histogram stats).
void WriteMetricsCsv(std::ostream& os, const MetricRegistry& registry);

// Chrome trace-event JSON: spans on one tid per track (with
// thread_name metadata), timeline series as "C" counter events. Structured
// events land as "i" instants on per-cell "<cell>/events" tracks, with
// "s"/"t"/"f" flow bindings chaining each fault window's open event through
// its attributed degradation responses to its close event.
void WriteChromeTrace(std::ostream& os, const MetricRegistry& registry);

// Structured event log as JSONL ("cxl-events-v1"): a meta line
//   {"schema":"cxl-events-v1","events":N,"dropped":D,"cells":[...]}
// then one self-describing object per event in merged (cell-index) order:
// t_ms, kind, cell label (omitted pre-merge), window id (omitted when
// unattributed), reason name, and the kind's named payload fields.
// Deterministic: sim timestamps only, so the file is byte-identical for any
// --jobs value.
void WriteEventsJsonl(std::ostream& os, const MetricRegistry& registry);

// Minimal JSON string escaping (quotes, backslash, control chars).
std::string JsonEscape(const std::string& s);

}  // namespace cxl::telemetry

#endif  // CXL_EXPLORER_SRC_TELEMETRY_EXPORT_H_
