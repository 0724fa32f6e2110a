#include "src/telemetry/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/telemetry/events.h"
#include "src/util/histogram.h"

namespace cxl::telemetry {
namespace {

MetricRegistry FilledRegistry() {
  MetricRegistry reg;
  reg.GetCounter("tiering.ticks").Add(22);
  reg.GetGauge("pcm.skt0.dram_gbps").Set(41.25);
  Histogram h;
  h.Record(100.0);
  h.Record(200.0);
  reg.RecordHistogram("kv.read_latency_us", h);
  reg.timeline().Sample("tiering.promote_mbps", 250.0, 3000.0);
  reg.timeline().Sample("tiering.promote_mbps", 500.0, 1500.0);
  const auto kv = reg.trace().Track("kv-server");
  reg.trace().Span(kv, "epoch 0", 0.0, 250.0, {{"kops", 880.0}});
  reg.events().Record(Event(EventKind::kPagePromote, 250.0));
  return reg;
}

TEST(ExportTest, MetricsJsonContainsEveryKind) {
  std::ostringstream os;
  WriteMetricsJson(os, FilledRegistry());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": \"cxl-telemetry-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"tiering.ticks\": 22"), std::string::npos);
  EXPECT_NE(out.find("\"pcm.skt0.dram_gbps\": 41.25"), std::string::npos);
  EXPECT_NE(out.find("\"kv.read_latency_us\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  // Series render as [t, value] pairs in append order.
  EXPECT_NE(out.find("[250,3000]"), std::string::npos);
  EXPECT_NE(out.find("[500,1500]"), std::string::npos);
}

TEST(ExportTest, MetricsJsonIsDeterministic) {
  std::ostringstream a, b;
  WriteMetricsJson(a, FilledRegistry());
  WriteMetricsJson(b, FilledRegistry());
  EXPECT_EQ(a.str(), b.str());
}

TEST(ExportTest, MetricsCsvLongFormat) {
  std::ostringstream os;
  WriteMetricsCsv(os, FilledRegistry());
  const std::string out = os.str();
  EXPECT_NE(out.find("kind,name,t_ms,value"), std::string::npos);
  EXPECT_NE(out.find("counter,tiering.ticks,,22"), std::string::npos);
  EXPECT_NE(out.find("gauge,pcm.skt0.dram_gbps,,41.25"), std::string::npos);
  EXPECT_NE(out.find("series,tiering.promote_mbps,250,3000"), std::string::npos);
}

TEST(ExportTest, ChromeTraceShape) {
  std::ostringstream os;
  WriteChromeTrace(os, FilledRegistry());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Track metadata names the kv-server row.
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"kv-server\""), std::string::npos);
  // The span: ph X at ts 0 with dur 250 ms = 250000 us.
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":250000"), std::string::npos);
  // The structured event (an instant) and the series-as-counter events.
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ExportTest, EmptyRegistryStillWritesValidSkeletons) {
  MetricRegistry reg;
  std::ostringstream json, trace;
  WriteMetricsJson(json, reg);
  WriteChromeTrace(trace, reg);
  EXPECT_NE(json.str().find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(trace.str().find("\"traceEvents\":["), std::string::npos);
}

TEST(ExportTest, JsonEscapeControlAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
}

}  // namespace
}  // namespace cxl::telemetry
