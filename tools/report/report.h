// cxl_report: turns a bench run's structured event log (--events-out JSONL,
// schema cxl-events-v1) plus optional metrics/bench-json outputs into a
// markdown diagnosis:
//
//   - fault-window timeline (open/close, type, severity) per sweep cell;
//   - impact table: every degradation response joined to the fault window
//     that caused it (poison retries, quarantines, flash retries, shed
//     episodes, skipped daemon ticks, shuffle re-executions, batch
//     shrinks), with SLO burn attributed per window;
//   - SLO violation episodes and burn rates;
//   - anomaly findings (ping-pong, promotion starvation, solver
//     oscillation);
//   - reconciliation: event totals cross-checked against the counters in
//     --metrics-out (skipped with a note when the flight-recorder ring
//     dropped events).
//
// The output is deterministic: ordering follows the event log (itself
// byte-identical at any --jobs) and ordered maps — byte-stable across runs,
// so CI can diff it against a golden.
#ifndef CXL_EXPLORER_TOOLS_REPORT_REPORT_H_
#define CXL_EXPLORER_TOOLS_REPORT_REPORT_H_

#include <iosfwd>
#include <string>

namespace cxl::report {

struct ReportOptions {
  std::string events_path;      // Required: --events-out JSONL.
  std::string metrics_path;     // Optional: --metrics-out JSON (reconciliation).
  std::string bench_json_path;  // Optional: --bench-json summary (run header).
  // --check: exit non-zero when a degradation-response event carries no
  // fault-window id, references a window that never opened, a
  // reconciliation row mismatches, or the meta line's "events" count
  // differs from the number of event lines.
  bool check = false;
};

// Writes the markdown diagnosis to `out`; diagnostics (I/O and parse
// failures, --check verdicts) go to `err`. Returns the process exit code:
// 0 on success, 1 when --check found problems, 2 on I/O or parse errors.
int GenerateReport(const ReportOptions& options, std::ostream& out, std::ostream& err);

}  // namespace cxl::report

#endif  // CXL_EXPLORER_TOOLS_REPORT_REPORT_H_
