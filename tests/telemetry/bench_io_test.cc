#include "src/telemetry/bench_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace cxl::telemetry {
namespace {

// A BenchTelemetry writing the given outputs (empty = not requested).
BenchTelemetry Writing(const std::string& metrics, const std::string& trace = "",
                       const std::string& bench_json = "") {
  BenchTelemetry::Outputs outputs;
  outputs.metrics_path = metrics;
  outputs.trace_path = trace;
  outputs.bench_json_path = bench_json;
  return BenchTelemetry(std::move(outputs));
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchTelemetryTest, RecordSweepFillsGaugesAndScheduleSpans) {
  BenchTelemetry t = Writing("unused.json");
  runner::SweepStats stats;
  stats.cells = 2;
  stats.jobs = 2;
  stats.wall_ms = 100.0;
  stats.serial_ms = 180.0;
  stats.max_cell_ms = 90.0;
  stats.cell_records = {{"MMEM/YCSB-A", 0.0, 90.0}, {"CXL/YCSB-A", 1.0, 90.0}};
  t.RecordSweep("fig", stats);
  EXPECT_DOUBLE_EQ(t.registry().GetGauge("sweep.fig.cells").value(), 2.0);
  EXPECT_DOUBLE_EQ(t.registry().GetGauge("sweep.fig.speedup").value(), 1.8);
  // One span per cell on the sweep schedule track.
  ASSERT_EQ(t.registry().trace().events().size(), 2u);
  EXPECT_EQ(t.registry().trace().events()[0].name, "MMEM/YCSB-A");
  EXPECT_DOUBLE_EQ(t.registry().trace().events()[1].ts_ms, 1.0);
}

TEST(BenchTelemetryTest, WriteProducesRequestedFiles) {
  const std::string dir = testing::TempDir();
  const std::string metrics = dir + "/bench_io_test_m.json";
  const std::string csv = dir + "/bench_io_test_m.csv";
  const std::string trace = dir + "/bench_io_test_t.json";
  const std::string bench = dir + "/bench_io_test_b.json";
  {
    BenchTelemetry t = Writing(metrics, trace, bench);
    t.registry().GetCounter("ops").Add(9);
    ASSERT_TRUE(t.Write("bench_unit"));
    EXPECT_NE(Slurp(metrics).find("\"ops\": 9"), std::string::npos);
    EXPECT_NE(Slurp(trace).find("traceEvents"), std::string::npos);
    const std::string b = Slurp(bench);
    EXPECT_NE(b.find("\"bench\": \"bench_unit\""), std::string::npos);
    EXPECT_NE(b.find("\"wall_ms\""), std::string::npos);
  }
  {
    // A .csv metrics path selects the CSV exporter.
    BenchTelemetry t = Writing(csv);
    t.registry().GetCounter("ops").Add(1);
    ASSERT_TRUE(t.Write("bench_unit"));
    EXPECT_NE(Slurp(csv).find("kind,name,t_ms,value"), std::string::npos);
  }
}

TEST(BenchTelemetryTest, WriteFailsOnUnwritablePath) {
  BenchTelemetry t = Writing("/nonexistent-dir/x/y.json");
  EXPECT_FALSE(t.Write("bench_unit"));
}

TEST(BenchTelemetryTest, DisabledWriteIsANoOp) {
  BenchTelemetry t;
  EXPECT_TRUE(t.Write("bench_unit"));
}

}  // namespace
}  // namespace cxl::telemetry
