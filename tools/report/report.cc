#include "tools/report/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/events.h"
#include "tools/report/json_lite.h"

namespace cxl::report {

namespace {

// One parsed event line, annotated with the resolved kind and cell order.
struct EventRow {
  double t_ms = 0.0;
  telemetry::EventKind kind = telemetry::EventKind::kFaultWindowOpen;
  bool known_kind = false;
  std::string kind_name;
  std::string cell;     // Empty for run-level (cell-less) events.
  int cell_index = -1;  // Position in the meta "cells" table; -1 = run-level.
  bool has_window = false;
  int window = telemetry::kNoWindow;
  std::string reason;
  const JsonValue* raw = nullptr;  // Owned by the caller's line vector.
};

// (cell order, window id): the join key between fault windows and the
// degradation responses they caused. Run-level events sort after cells.
using WindowKey = std::pair<int, int>;

struct WindowInfo {
  std::string cell;
  std::string type;  // Fault type (the open event's reason).
  double severity = 0.0;
  double open_ms = 0.0;
  double close_ms = -1.0;  // <0: still open at the end of the run.
  bool opened = false;
};

struct WindowImpact {
  uint64_t skipped_ticks = 0;
  uint64_t backoffs = 0;
  uint64_t poison_retries = 0;  // Sum of the per-read retry counts.
  uint64_t quarantines = 0;
  uint64_t flash_retries = 0;
  uint64_t shed_episodes = 0;
  uint64_t reexec_partitions = 0;
  double retry_seconds = 0.0;
  uint64_t batch_shrinks = 0;
  double slo_burned_ms = 0.0;
  uint64_t total_events = 0;
};

std::string FormatMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

std::string FormatNum(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

bool ReadFile(const std::string& path, std::string* out, std::ostream& err) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    err << "cxl_report: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  *out = buffer.str();
  return true;
}

std::string CellLabel(const EventRow& e) { return e.cell.empty() ? "(run)" : e.cell; }

}  // namespace

int GenerateReport(const ReportOptions& options, std::ostream& out, std::ostream& err) {
  if (options.events_path.empty()) {
    err << "cxl_report: --events FILE is required\n";
    return 2;
  }
  std::string events_text;
  if (!ReadFile(options.events_path, &events_text, err)) {
    return 2;
  }
  std::vector<JsonValue> lines;
  std::string parse_error;
  if (!ParseJsonLines(events_text, &lines, &parse_error)) {
    err << "cxl_report: " << options.events_path << ": " << parse_error << "\n";
    return 2;
  }
  if (lines.empty() || lines[0].String("schema") != "cxl-events-v1") {
    err << "cxl_report: " << options.events_path
        << ": missing cxl-events-v1 meta line\n";
    return 2;
  }
  const JsonValue& meta = lines[0];
  const uint64_t dropped = static_cast<uint64_t>(meta.Number("dropped"));
  const uint64_t declared_events = static_cast<uint64_t>(meta.Number("events"));

  // Cell label -> merge order, for stable section ordering.
  std::map<std::string, int> cell_order;
  if (const JsonValue* cells = meta.Find("cells"); cells != nullptr && cells->is_array()) {
    for (size_t i = 0; i < cells->AsArray().size(); ++i) {
      cell_order.emplace(cells->AsArray()[i].AsString(), static_cast<int>(i));
    }
  }

  // Kind-name resolution via the same descriptor table the writer used.
  std::map<std::string, telemetry::EventKind> kind_by_name;
  for (int k = 0; k < telemetry::kEventKindCount; ++k) {
    const auto kind = static_cast<telemetry::EventKind>(k);
    kind_by_name.emplace(telemetry::EventKindName(kind), kind);
  }

  std::vector<EventRow> events;
  events.reserve(lines.size() - 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    const JsonValue& line = lines[i];
    EventRow row;
    row.t_ms = line.Number("t_ms");
    row.kind_name = line.String("kind");
    if (const auto it = kind_by_name.find(row.kind_name); it != kind_by_name.end()) {
      row.kind = it->second;
      row.known_kind = true;
    }
    row.cell = line.String("cell");
    if (const auto it = cell_order.find(row.cell); it != cell_order.end()) {
      row.cell_index = it->second;
    }
    if (const JsonValue* w = line.Find("window"); w != nullptr && w->is_number()) {
      row.has_window = true;
      row.window = static_cast<int>(w->AsDouble());
    }
    row.reason = line.String("reason");
    row.raw = &line;
    events.push_back(std::move(row));
  }

  // ---- Pass 1: fault windows, impact join, SLO episodes, anomalies. ----
  std::map<WindowKey, WindowInfo> windows;
  std::map<WindowKey, WindowImpact> impact;
  const auto key_of = [](const EventRow& e) {
    // Run-level events sort after every named cell (index 1<<20 ~ "last").
    return WindowKey{e.cell_index < 0 ? (1 << 20) : e.cell_index, e.window};
  };

  struct SloEpisode {
    std::string cell;
    std::string reason;
    double open_ms = 0.0;
    double close_ms = -1.0;
    double burned_ms = 0.0;
    bool has_window = false;
    int window = telemetry::kNoWindow;
    int cell_index = -1;
  };
  std::vector<SloEpisode> slo_episodes;
  // Open episode per cell label (the tracker is one-violation-at-a-time).
  std::map<std::string, size_t> open_slo;

  std::vector<const EventRow*> anomalies;
  std::vector<const EventRow*> unattributed;  // Degradation responses, no window.
  uint64_t responses = 0;

  for (const EventRow& e : events) {
    if (!e.known_kind) {
      continue;
    }
    using telemetry::EventKind;
    switch (e.kind) {
      case EventKind::kFaultWindowOpen: {
        WindowInfo& w = windows[key_of(e)];
        w.cell = e.cell;
        w.type = e.reason;
        w.severity = e.raw->Number("severity");
        w.open_ms = e.t_ms;
        w.opened = true;
        break;
      }
      case EventKind::kFaultWindowClose:
        windows[key_of(e)].close_ms = e.t_ms;
        break;
      case EventKind::kSloViolationOpen: {
        SloEpisode ep;
        ep.cell = e.cell;
        ep.cell_index = e.cell_index;
        ep.reason = e.reason;
        ep.open_ms = e.t_ms;
        ep.has_window = e.has_window;
        ep.window = e.window;
        open_slo[e.cell] = slo_episodes.size();
        slo_episodes.push_back(ep);
        break;
      }
      case EventKind::kSloViolationClose: {
        if (const auto it = open_slo.find(e.cell); it != open_slo.end()) {
          SloEpisode& ep = slo_episodes[it->second];
          ep.close_ms = e.t_ms;
          ep.burned_ms = e.raw->Number("burned_ms");
          open_slo.erase(it);
        }
        if (e.has_window) {
          impact[key_of(e)].slo_burned_ms += e.raw->Number("burned_ms");
        }
        break;
      }
      case EventKind::kAnomalyPingPong:
      case EventKind::kAnomalyPromotionStarvation:
      case EventKind::kAnomalySolverOscillation:
        anomalies.push_back(&e);
        break;
      default:
        break;
    }
    if (telemetry::IsDegradationResponse(e.kind)) {
      ++responses;
      if (!e.has_window) {
        unattributed.push_back(&e);
        continue;
      }
      WindowImpact& w = impact[key_of(e)];
      ++w.total_events;
      switch (e.kind) {
        case EventKind::kDaemonSkippedTick:
          ++w.skipped_ticks;
          break;
        case EventKind::kPromotionBackoffArmed:
          ++w.backoffs;
          break;
        case EventKind::kKvPoisonRetry:
          w.poison_retries += static_cast<uint64_t>(e.raw->Number("retries"));
          break;
        case EventKind::kKvQuarantine:
          ++w.quarantines;
          break;
        case EventKind::kKvFlashRetry:
          ++w.flash_retries;
          break;
        case EventKind::kKvShedOn:
          ++w.shed_episodes;
          break;
        case EventKind::kSparkShuffleReexec:
          w.reexec_partitions += static_cast<uint64_t>(e.raw->Number("partitions"));
          w.retry_seconds += e.raw->Number("retry_s");
          break;
        case EventKind::kLlmBatchShrink:
          if (e.reason == "shrink") {
            ++w.batch_shrinks;
          }
          break;
        default:
          break;
      }
    }
  }

  // Degradation responses naming a window that never opened. Ring mode can
  // legitimately drop the open, so membership is only enforced losslessly.
  std::vector<const EventRow*> unresolved;
  if (dropped == 0) {
    for (const EventRow& e : events) {
      if (e.known_kind && telemetry::IsDegradationResponse(e.kind) && e.has_window) {
        const auto it = windows.find(key_of(e));
        if (it == windows.end() || !it->second.opened) {
          unresolved.push_back(&e);
        }
      }
    }
  }

  // ---- Optional inputs. ----
  std::map<std::string, double> counters;
  bool have_metrics = false;
  if (!options.metrics_path.empty()) {
    std::string text;
    if (!ReadFile(options.metrics_path, &text, err)) {
      return 2;
    }
    JsonValue metrics;
    if (!ParseJson(text, &metrics, &parse_error)) {
      err << "cxl_report: " << options.metrics_path << ": " << parse_error << "\n";
      return 2;
    }
    if (const JsonValue* c = metrics.Find("counters"); c != nullptr && c->is_object()) {
      for (const auto& [name, value] : c->AsObject()) {
        counters.emplace(name, value.AsDouble());
      }
    }
    have_metrics = true;
  }
  JsonValue bench;
  bool have_bench = false;
  if (!options.bench_json_path.empty()) {
    std::string text;
    if (!ReadFile(options.bench_json_path, &text, err)) {
      return 2;
    }
    if (!ParseJson(text, &bench, &parse_error)) {
      err << "cxl_report: " << options.bench_json_path << ": " << parse_error << "\n";
      return 2;
    }
    have_bench = true;
  }

  // ---- Emit markdown. ----
  out << "# CXL diagnosis report\n\n";
  if (have_bench) {
    out << "- bench: `" << bench.String("bench") << "` (cells="
        << FormatNum(bench.Number("cells")) << ", jobs=" << FormatNum(bench.Number("jobs"))
        << ", wall " << FormatMs(bench.Number("wall_ms")) << " ms, speedup "
        << FormatNum(bench.Number("speedup")) << "x)\n";
  }
  out << "- events: " << events.size() << " recorded, " << dropped
      << " dropped by the flight-recorder ring\n";
  out << "- degradation responses: " << responses << " (" << unattributed.size()
      << " unattributed, " << unresolved.size() << " naming an unknown window)\n\n";

  out << "## Fault windows\n\n";
  if (windows.empty()) {
    out << "No fault windows opened — a healthy run.\n\n";
  } else {
    out << "| cell | window | type | severity | opened ms | closed ms |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const auto& [key, w] : windows) {
      out << "| " << (w.cell.empty() ? "(run)" : w.cell) << " | " << key.second << " | "
          << w.type << " | " << FormatNum(w.severity) << " | " << FormatMs(w.open_ms) << " | "
          << (w.close_ms < 0.0 ? std::string("run end") : FormatMs(w.close_ms)) << " |\n";
    }
    out << "\n";
  }

  out << "## Impact by fault window\n\n";
  if (impact.empty()) {
    out << "No degradation responses attributed to any fault window.\n\n";
  } else {
    out << "| cell | window | type | skips | backoffs | poison retries | quarantined "
           "| flash | shed | reexec parts | retry s | shrinks | SLO burn ms |\n";
    out << "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
    WindowImpact total;
    for (const auto& [key, im] : impact) {
      const auto wit = windows.find(key);
      const std::string cell =
          wit != windows.end()
              ? (wit->second.cell.empty() ? "(run)" : wit->second.cell)
              : "?";
      const std::string type = wit != windows.end() ? wit->second.type : "?";
      out << "| " << cell << " | " << key.second << " | " << type << " | " << im.skipped_ticks
          << " | " << im.backoffs << " | " << im.poison_retries << " | " << im.quarantines
          << " | " << im.flash_retries << " | " << im.shed_episodes << " | "
          << im.reexec_partitions << " | " << FormatNum(im.retry_seconds) << " | "
          << im.batch_shrinks << " | " << FormatMs(im.slo_burned_ms) << " |\n";
      total.skipped_ticks += im.skipped_ticks;
      total.backoffs += im.backoffs;
      total.poison_retries += im.poison_retries;
      total.quarantines += im.quarantines;
      total.flash_retries += im.flash_retries;
      total.shed_episodes += im.shed_episodes;
      total.reexec_partitions += im.reexec_partitions;
      total.retry_seconds += im.retry_seconds;
      total.batch_shrinks += im.batch_shrinks;
      total.slo_burned_ms += im.slo_burned_ms;
    }
    out << "| **total** | | | " << total.skipped_ticks << " | " << total.backoffs << " | "
        << total.poison_retries << " | " << total.quarantines << " | " << total.flash_retries
        << " | " << total.shed_episodes << " | " << total.reexec_partitions << " | "
        << FormatNum(total.retry_seconds) << " | " << total.batch_shrinks << " | "
        << FormatMs(total.slo_burned_ms) << " |\n\n";
  }

  out << "## SLO violations\n\n";
  if (slo_episodes.empty()) {
    out << "No SLO violations.\n\n";
  } else {
    out << "| cell | objective | opened ms | closed ms | burned ms | fault window |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const SloEpisode& ep : slo_episodes) {
      out << "| " << (ep.cell.empty() ? "(run)" : ep.cell) << " | " << ep.reason << " | "
          << FormatMs(ep.open_ms) << " | "
          << (ep.close_ms < 0.0 ? std::string("run end") : FormatMs(ep.close_ms)) << " | "
          << (ep.close_ms < 0.0 ? std::string("-") : FormatMs(ep.burned_ms)) << " | "
          << (ep.has_window ? std::to_string(ep.window) : std::string("unattributed"))
          << " |\n";
    }
    out << "\n";
  }

  out << "## Anomalies\n\n";
  if (anomalies.empty()) {
    out << "No anomalies detected.\n\n";
  } else {
    out << "| cell | anomaly | t ms | details |\n";
    out << "|---|---|---|---|\n";
    for (const EventRow* e : anomalies) {
      const telemetry::EventKindInfo& info = telemetry::KindInfo(e->kind);
      std::string details;
      if (info.field_a != nullptr && e->raw->Has(info.field_a)) {
        details += std::string(info.field_a) + "=" + FormatNum(e->raw->Number(info.field_a));
      }
      if (info.field_b != nullptr && e->raw->Has(info.field_b)) {
        if (!details.empty()) {
          details += ", ";
        }
        details += std::string(info.field_b) + "=" + FormatNum(e->raw->Number(info.field_b));
      }
      out << "| " << CellLabel(*e) << " | " << e->kind_name << " | " << FormatMs(e->t_ms)
          << " | " << details << " |\n";
    }
    out << "\n";
  }

  // ---- Reconciliation: event totals vs the counters the layers kept. ----
  bool mismatch = false;
  out << "## Reconciliation\n\n";
  if (!have_metrics) {
    out << "No --metrics file given; reconciliation skipped.\n\n";
  } else if (dropped > 0) {
    out << "Flight-recorder ring dropped " << dropped
        << " events; totals are partial, reconciliation skipped.\n\n";
  } else {
    // Per-cell event totals for each reconcilable quantity.
    struct CellTotals {
      uint64_t poison_retry_events = 0;  // One event per poisoned read.
      uint64_t quarantines = 0;
      uint64_t flash_retries = 0;
      uint64_t reexec_partitions = 0;
      uint64_t ping_pong = 0;
      uint64_t starvation = 0;
      uint64_t oscillation = 0;
    };
    std::map<std::pair<int, std::string>, CellTotals> by_cell;
    for (const EventRow& e : events) {
      if (!e.known_kind) {
        continue;
      }
      CellTotals& t = by_cell[{e.cell_index < 0 ? (1 << 20) : e.cell_index, e.cell}];
      using telemetry::EventKind;
      switch (e.kind) {
        case EventKind::kKvPoisonRetry:
          ++t.poison_retry_events;
          break;
        case EventKind::kKvQuarantine:
          ++t.quarantines;
          break;
        case EventKind::kKvFlashRetry:
          ++t.flash_retries;
          break;
        case EventKind::kSparkShuffleReexec:
          t.reexec_partitions += static_cast<uint64_t>(e.raw->Number("partitions"));
          break;
        case EventKind::kAnomalyPingPong:
          ++t.ping_pong;
          break;
        case EventKind::kAnomalyPromotionStarvation:
          ++t.starvation;
          break;
        case EventKind::kAnomalySolverOscillation:
          ++t.oscillation;
          break;
        default:
          break;
      }
    }
    out << "| cell | quantity | events | counter | status |\n";
    out << "|---|---|---|---|---|\n";
    uint64_t rows = 0;
    for (const auto& [key, t] : by_cell) {
      const std::string& cell = key.second;
      const auto counter = [&](const char* name) -> double {
        const std::string full = cell.empty() ? std::string(name) : cell + "/" + name;
        const auto it = counters.find(full);
        return it == counters.end() ? 0.0 : it->second;
      };
      const auto row = [&](const char* quantity, uint64_t from_events, const char* counter_name) {
        const double expected = counter(counter_name);
        if (from_events == 0 && expected == 0.0) {
          return;
        }
        const bool ok = static_cast<double>(from_events) == expected;
        mismatch |= !ok;
        ++rows;
        out << "| " << (cell.empty() ? "(run)" : cell) << " | " << quantity << " | "
            << from_events << " | " << FormatNum(expected) << " | "
            << (ok ? "OK" : "**MISMATCH**") << " |\n";
      };
      row("poisoned reads retried", t.poison_retry_events, "fault.poisoned_reads");
      row("quarantined pages", t.quarantines, "tiering.quarantined_pages");
      row("flash IO retries", t.flash_retries, "fault.flash_errors");
      row("re-executed partitions", t.reexec_partitions, "spark.reexecuted_partitions");
      row("ping-pong episodes", t.ping_pong, "anomaly.ping_pong");
      row("starvation episodes", t.starvation, "anomaly.promotion_starvation");
      row("oscillation episodes", t.oscillation, "anomaly.solver_oscillation");
    }
    if (rows == 0) {
      out << "| - | nothing to reconcile | 0 | 0 | OK |\n";
    }
    out << "\n";
  }

  // ---- Diagnosis summary + --check verdict. ----
  out << "## Diagnosis\n\n";
  if (windows.empty() && slo_episodes.empty() && anomalies.empty()) {
    out << "Healthy: no fault windows, SLO violations, or anomalies.\n";
  } else {
    if (!windows.empty()) {
      out << "- " << windows.size() << " fault window(s) opened; " << impact.size()
          << " caused attributable degradation responses.\n";
    }
    if (!slo_episodes.empty()) {
      double burned = 0.0;
      uint64_t attributed = 0;
      for (const SloEpisode& ep : slo_episodes) {
        burned += ep.burned_ms;
        attributed += ep.has_window ? 1 : 0;
      }
      out << "- " << slo_episodes.size() << " SLO violation(s) burned " << FormatMs(burned)
          << " ms of error budget; " << attributed
          << " attribute to a fault window (the rest is structural slowness).\n";
    }
    if (!anomalies.empty()) {
      out << "- " << anomalies.size()
          << " anomaly finding(s) — see the table above; ping-pong episodes on a "
             "Hot-Promote cell indicate promotion/demotion thrashing (§4.2.3).\n";
    }
  }

  bool failed = false;
  if (options.check) {
    if (!unattributed.empty()) {
      err << "cxl_report: CHECK FAILED: " << unattributed.size()
          << " degradation-response event(s) carry no fault-window id";
      err << " (first: t_ms=" << FormatMs(unattributed[0]->t_ms) << " kind="
          << unattributed[0]->kind_name << " cell=" << CellLabel(*unattributed[0]) << ")\n";
      failed = true;
    }
    if (!unresolved.empty()) {
      err << "cxl_report: CHECK FAILED: " << unresolved.size()
          << " degradation-response event(s) name a window that never opened\n";
      failed = true;
    }
    if (mismatch) {
      err << "cxl_report: CHECK FAILED: event totals disagree with counters "
             "(see Reconciliation)\n";
      failed = true;
    }
    if (declared_events != events.size()) {
      err << "cxl_report: CHECK FAILED: the meta line declares " << declared_events
          << " events, the log holds " << events.size() << "\n";
      failed = true;
    }
    if (!failed) {
      err << "cxl_report: check OK (" << responses << " responses attributed, "
          << windows.size() << " windows)\n";
    }
  }
  return failed ? 1 : 0;
}

}  // namespace cxl::report
