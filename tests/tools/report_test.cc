// cxl_report end-to-end on synthetic inputs: the JSON parser, the causal
// impact join, --check verdicts, and the ring-drop degradation path.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tools/report/json_lite.h"
#include "tools/report/report.h"

namespace cxl::report {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  return path;
}

struct RunResult {
  int exit_code;
  std::string markdown;
  std::string diagnostics;
};

RunResult RunReport(ReportOptions options) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = GenerateReport(options, out, err);
  return {code, out.str(), err.str()};
}

// A small two-cell log: one fault window in cell "storm" causing a poison
// retry and a quarantine; cell "healthy" stays quiet.
const char kEventsJsonl[] =
    R"({"schema":"cxl-events-v1","events":4,"dropped":0,"cells":["storm"]}
{"t_ms":100,"kind":"fault_window_open","cell":"storm","window":0,"reason":"poison","severity":1,"duration_ms":5000}
{"t_ms":150,"kind":"kv_poison_retry","cell":"storm","window":0,"retries":2,"page":4096}
{"t_ms":160,"kind":"kv_quarantine","cell":"storm","window":0,"page":4096}
{"t_ms":5100,"kind":"fault_window_close","cell":"storm","window":0,"reason":"poison"}
)";

const char kMetricsJson[] =
    R"({
  "schema": "cxl-telemetry-v1",
  "counters": {
    "storm/fault.poisoned_reads": 1,
    "storm/tiering.quarantined_pages": 1
  },
  "gauges": {},
  "histograms": {},
  "series": {}
})";

TEST(JsonLiteTest, ParsesScalarsArraysObjects) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"a": [1, 2.5, "x", true, null], "b": {"c": -3}})",
                        &v, &error))
      << error;
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 5u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsDouble(), 2.5);
  EXPECT_EQ(a->AsArray()[2].AsString(), "x");
  EXPECT_TRUE(a->AsArray()[3].AsBool());
  EXPECT_DOUBLE_EQ(v.Find("b")->Number("c", 0.0), -3.0);
}

TEST(JsonLiteTest, RejectsMalformedInputWithPosition) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(R"({"a": )", &v, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson(R"({"a": 1} trailing)", &v, &error));
}

TEST(JsonLiteTest, ParsesStringEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"s": "a\"b\\c\nA"})", &v, &error)) << error;
  EXPECT_EQ(v.String("s", ""), "a\"b\\c\nA");
}

TEST(JsonLiteTest, ParseJsonLinesReportsLineNumbers) {
  std::vector<JsonValue> lines;
  std::string error;
  ASSERT_TRUE(ParseJsonLines("{\"a\":1}\n\n{\"b\":2}\n", &lines, &error)) << error;
  EXPECT_EQ(lines.size(), 2u);  // Blank lines skipped.
  EXPECT_FALSE(ParseJsonLines("{\"a\":1}\n{bad\n", &lines, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ReportTest, AttributesResponsesAndReconcilesCleanly) {
  ReportOptions options;
  options.events_path = WriteTemp("report_ok_events.jsonl", kEventsJsonl);
  options.metrics_path = WriteTemp("report_ok_metrics.json", kMetricsJson);
  options.check = true;
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 0) << r.diagnostics;
  EXPECT_NE(r.markdown.find("## Fault windows"), std::string::npos);
  EXPECT_NE(r.markdown.find("## Impact by fault window"), std::string::npos);
  EXPECT_NE(r.markdown.find("## Reconciliation"), std::string::npos);
  EXPECT_EQ(r.markdown.find("MISMATCH"), std::string::npos);
  EXPECT_NE(r.diagnostics.find("check OK"), std::string::npos);
}

TEST(ReportTest, CheckFailsOnCounterMismatch) {
  const char kWrongMetrics[] =
      R"({"counters": {"storm/fault.poisoned_reads": 7}})";
  ReportOptions options;
  options.events_path = WriteTemp("report_mm_events.jsonl", kEventsJsonl);
  options.metrics_path = WriteTemp("report_mm_metrics.json", kWrongMetrics);
  options.check = true;
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.markdown.find("MISMATCH"), std::string::npos);
}

TEST(ReportTest, CheckFailsOnUnattributedResponse) {
  const char kUnattributed[] =
      R"({"schema":"cxl-events-v1","events":1,"dropped":0,"cells":["storm"]}
{"t_ms":10,"kind":"kv_poison_retry","cell":"storm","retries":1,"page":0}
)";
  ReportOptions options;
  options.events_path = WriteTemp("report_unattr_events.jsonl", kUnattributed);
  options.check = true;
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 1);
}

TEST(ReportTest, CheckFailsOnDanglingWindowReference) {
  const char kDangling[] =
      R"({"schema":"cxl-events-v1","events":1,"dropped":0,"cells":["storm"]}
{"t_ms":10,"kind":"kv_poison_retry","cell":"storm","window":9,"retries":1,"page":0}
)";
  ReportOptions options;
  options.events_path = WriteTemp("report_dangle_events.jsonl", kDangling);
  options.check = true;
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 1);
}

TEST(ReportTest, CheckFailsWhenMetaEventCountDisagreesWithTheLines) {
  // kEventsJsonl with the meta line's count off by one: a log cut short or
  // padded after its meta line was written.
  std::string miscounted = kEventsJsonl;
  const std::string declared = "\"events\":4";
  miscounted.replace(miscounted.find(declared), declared.size(), "\"events\":5");
  ReportOptions options;
  options.events_path = WriteTemp("report_count_events.jsonl", miscounted);
  options.metrics_path = WriteTemp("report_count_metrics.json", kMetricsJson);
  options.check = true;
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.diagnostics.find("5 events"), std::string::npos) << r.diagnostics;
}

TEST(ReportTest, RingDropSkipsStrictChecksWithANote) {
  // Same dangling window, but dropped>0: the open may have been evicted
  // from the ring, so the reference is not treated as an error.
  const char kDropped[] =
      R"({"schema":"cxl-events-v1","events":1,"dropped":5,"cells":["storm"]}
{"t_ms":10,"kind":"kv_poison_retry","cell":"storm","window":9,"retries":1,"page":0}
)";
  ReportOptions options;
  options.events_path = WriteTemp("report_ring_events.jsonl", kDropped);
  options.check = true;
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 0) << r.diagnostics;
}

TEST(ReportTest, BadSchemaIsAnIoError) {
  ReportOptions options;
  options.events_path = WriteTemp(
      "report_bad_events.jsonl",
      "{\"schema\":\"not-events\",\"events\":0,\"dropped\":0,\"cells\":[]}\n");
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 2);
}

TEST(ReportTest, MissingFileIsAnIoError) {
  ReportOptions options;
  options.events_path = testing::TempDir() + "/does_not_exist.jsonl";
  const RunResult r = RunReport(options);
  EXPECT_EQ(r.exit_code, 2);
}

TEST(ReportTest, DeterministicMarkdownAcrossRuns) {
  ReportOptions options;
  options.events_path = WriteTemp("report_det_events.jsonl", kEventsJsonl);
  options.metrics_path = WriteTemp("report_det_metrics.json", kMetricsJson);
  const RunResult a = RunReport(options);
  const RunResult b = RunReport(options);
  EXPECT_EQ(a.exit_code, 0);
  EXPECT_EQ(a.markdown, b.markdown);
}

}  // namespace
}  // namespace cxl::report
