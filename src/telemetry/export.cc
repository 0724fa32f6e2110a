#include "src/telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "src/util/units.h"

namespace cxl::telemetry {

namespace {

// Formats a double as a JSON-safe number token (JSON has no inf/nan).
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void WriteHistogramJson(std::ostream& os, const Histogram& h) {
  os << "{\"count\":" << h.count() << ",\"mean\":" << Num(h.mean()) << ",\"min\":" << Num(h.min())
     << ",\"max\":" << Num(h.max()) << ",\"p50\":" << Num(h.p50()) << ",\"p90\":" << Num(h.p90())
     << ",\"p95\":" << Num(h.p95()) << ",\"p99\":" << Num(h.p99())
     << ",\"p999\":" << Num(h.p999()) << "}";
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteMetricsJson(std::ostream& os, const MetricRegistry& registry) {
  os << "{\n  \"schema\": \"cxl-telemetry-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << counter->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (!gauge->set()) {
      continue;
    }
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << Num(gauge->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : registry.histograms()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": ";
    WriteHistogramJson(os, hist);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"series\": {";
  first = true;
  for (const auto& [name, series] : registry.timeline().series()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": [";
    bool first_point = true;
    for (const TimePoint& p : series.points()) {
      os << (first_point ? "" : ",") << "[" << Num(p.t_ms) << "," << Num(p.value) << "]";
      first_point = false;
    }
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void WriteMetricsCsv(std::ostream& os, const MetricRegistry& registry) {
  os << "kind,name,t_ms,value\n";
  for (const auto& [name, counter] : registry.counters()) {
    os << "counter," << name << ",," << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    if (gauge->set()) {
      os << "gauge," << name << ",," << Num(gauge->value()) << "\n";
    }
  }
  for (const auto& [name, hist] : registry.histograms()) {
    os << "histogram," << name << ".count,," << hist.count() << "\n";
    os << "histogram," << name << ".mean,," << Num(hist.mean()) << "\n";
    os << "histogram," << name << ".p50,," << Num(hist.p50()) << "\n";
    os << "histogram," << name << ".p99,," << Num(hist.p99()) << "\n";
    os << "histogram," << name << ".p999,," << Num(hist.p999()) << "\n";
    os << "histogram," << name << ".max,," << Num(hist.max()) << "\n";
  }
  for (const auto& [name, series] : registry.timeline().series()) {
    for (const TimePoint& p : series.points()) {
      os << "series," << name << "," << Num(p.t_ms) << "," << Num(p.value) << "\n";
    }
  }
}

void WriteChromeTrace(std::ostream& os, const MetricRegistry& registry) {
  // tid 0 is reserved for counter tracks; span tracks start at tid 1.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  sep();
  os << R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"cxl-explorer"}})";
  const TraceBuffer& trace = registry.trace();
  for (size_t i = 0; i < trace.tracks().size(); ++i) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i + 1
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << JsonEscape(trace.tracks()[i])
       << "\"}}";
  }
  for (const TraceBuffer::Event& e : trace.events()) {
    sep();
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.track + 1 << ",\"name\":\""
       << JsonEscape(e.name) << "\",\"ts\":" << Num(MsToUs(e.ts_ms))
       << ",\"dur\":" << Num(MsToUs(e.dur_ms));
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        os << (first_arg ? "" : ",") << "\"" << JsonEscape(key) << "\":" << Num(value);
        first_arg = false;
      }
      os << "}";
    }
    os << "}";
  }
  // Timeline series render as Perfetto counter tracks.
  for (const auto& [name, series] : registry.timeline().series()) {
    for (const TimePoint& p : series.points()) {
      sep();
      os << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"" << JsonEscape(name)
         << "\",\"ts\":" << Num(MsToUs(p.t_ms)) << ",\"args\":{\"value\":" << Num(p.value) << "}}";
    }
  }
  // Structured events: one instants track per emitting cell (tids after the
  // span tracks, in first-appearance order over the merged stream), plus flow
  // bindings so a fault window visually chains to its attributed responses.
  const EventLog& events = registry.events();
  if (!events.empty()) {
    std::map<int32_t, size_t> cell_tid;
    std::vector<int32_t> cell_order;
    events.ForEach([&](const Event& ev) {
      if (cell_tid.emplace(ev.cell, trace.tracks().size() + 1 + cell_order.size()).second) {
        cell_order.push_back(ev.cell);
      }
    });
    for (const int32_t cell : cell_order) {
      std::string label = "events";
      if (cell >= 0 && cell < static_cast<int32_t>(events.cells().size()) &&
          !events.cells()[cell].empty()) {
        label = events.cells()[cell] + "/events";
      }
      sep();
      os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << cell_tid[cell]
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << JsonEscape(label) << "\"}}";
    }
    events.ForEach([&](const Event& ev) {
      const size_t tid = cell_tid[ev.cell];
      const EventKindInfo& info = KindInfo(ev.kind);
      sep();
      os << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"name\":\"" << info.name
         << "\",\"ts\":" << Num(MsToUs(ev.t_ms)) << ",\"s\":\"t\",\"args\":{";
      bool first_arg = true;
      auto arg = [&](const char* key, double value) {
        os << (first_arg ? "" : ",") << "\"" << key << "\":" << Num(value);
        first_arg = false;
      };
      if (ev.window != kNoWindow) {
        arg("window", ev.window);
      }
      if (info.reasons != nullptr) {
        arg("reason", ev.reason);
      }
      if (info.field_a != nullptr) {
        arg(info.field_a, ev.a);
      }
      if (info.field_b != nullptr) {
        arg(info.field_b, ev.b);
      }
      os << "}}";
      // Flow chain: window open starts, each attributed response is a step,
      // window close ends. Ids are unique per (cell, window).
      const char* flow = nullptr;
      if (ev.kind == EventKind::kFaultWindowOpen) {
        flow = "s";
      } else if (ev.kind == EventKind::kFaultWindowClose) {
        flow = "f";
      } else if (IsDegradationResponse(ev.kind)) {
        flow = "t";
      }
      if (flow != nullptr && ev.window != kNoWindow) {
        const long long id =
            (static_cast<long long>(ev.cell) + 2) * 100000 + ev.window;
        sep();
        os << "{\"ph\":\"" << flow << "\",\"pid\":1,\"tid\":" << tid
           << ",\"cat\":\"fault\",\"name\":\"fault_window\",\"id\":" << id
           << ",\"ts\":" << Num(MsToUs(ev.t_ms));
        if (flow[0] == 'f') {
          os << ",\"bp\":\"e\"";
        }
        os << "}";
      }
    });
  }
  os << "\n]}\n";
}

void WriteEventsJsonl(std::ostream& os, const MetricRegistry& registry) {
  const EventLog& log = registry.events();
  os << "{\"schema\":\"cxl-events-v1\",\"events\":" << log.size()
     << ",\"dropped\":" << log.dropped() << ",\"cells\":[";
  bool first = true;
  for (const std::string& c : log.cells()) {
    os << (first ? "" : ",") << "\"" << JsonEscape(c) << "\"";
    first = false;
  }
  os << "]}\n";
  log.ForEach([&](const Event& e) {
    const EventKindInfo& info = KindInfo(e.kind);
    os << "{\"t_ms\":" << Num(e.t_ms) << ",\"kind\":\"" << info.name << "\"";
    if (e.cell >= 0 && e.cell < static_cast<int32_t>(log.cells().size())) {
      os << ",\"cell\":\"" << JsonEscape(log.cells()[e.cell]) << "\"";
    }
    if (e.window != kNoWindow) {
      os << ",\"window\":" << e.window;
    }
    if (info.reasons != nullptr) {
      os << ",\"reason\":\"" << EventReasonName(e.kind, e.reason) << "\"";
    }
    if (info.field_a != nullptr) {
      os << ",\"" << info.field_a << "\":" << Num(e.a);
    }
    if (info.field_b != nullptr) {
      os << ",\"" << info.field_b << "\":" << Num(e.b);
    }
    os << "}\n";
  });
}

}  // namespace cxl::telemetry
