#include "src/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace cxl::telemetry {
namespace {

TEST(MetricRegistryTest, CounterAndGaugeGetOrCreate) {
  MetricRegistry reg;
  reg.GetCounter("ops").Add(3);
  reg.GetCounter("ops").Increment();
  reg.GetGauge("bw").Set(12.5);
  EXPECT_EQ(reg.GetCounter("ops").value(), 4u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("bw").value(), 12.5);
  EXPECT_TRUE(reg.GetGauge("bw").set());
  EXPECT_FALSE(reg.GetGauge("untouched").set());
}

TEST(MetricRegistryTest, HandlesArePointerStableAcrossRegistrations) {
  MetricRegistry reg;
  Counter& first = reg.GetCounter("a");
  Gauge& g = reg.GetGauge("g");
  // Register many more metrics; the original references must stay valid.
  for (int i = 0; i < 200; ++i) {
    const std::string n = std::to_string(i);
    reg.GetCounter(std::string("c").append(n)).Increment();
    reg.GetGauge(std::string("g").append(n)).Set(i);
  }
  first.Add(7);
  g.Set(1.0);
  EXPECT_EQ(reg.GetCounter("a").value(), 7u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g").value(), 1.0);
}

TEST(MetricRegistryTest, HistogramSnapshotsAndMerges) {
  MetricRegistry reg;
  Histogram h;
  h.Record(10.0);
  h.Record(20.0);
  reg.RecordHistogram("lat", h);
  h.Record(30.0);  // Later mutation must not affect the recorded snapshot...
  EXPECT_EQ(reg.histograms().at("lat").count(), 2u);
  reg.RecordHistogram("lat", h);  // ...and re-recording merges.
  EXPECT_EQ(reg.histograms().at("lat").count(), 5u);
}

TEST(MetricRegistryTest, TimelineSeriesHandleIsStable) {
  MetricRegistry reg;
  TimeSeries& s = reg.timeline().Series("kv.kops");
  for (int i = 0; i < 50; ++i) {
    reg.timeline().Series("other" + std::to_string(i)).Sample(i, i);
  }
  s.Sample(1.0, 100.0);
  s.Sample(2.0, 200.0);
  EXPECT_EQ(reg.timeline().series().at("kv.kops").size(), 2u);
  EXPECT_DOUBLE_EQ(reg.timeline().series().at("kv.kops").Latest(), 200.0);
}

TEST(MetricRegistryTest, TraceTracksAreDenseAndReused) {
  MetricRegistry reg;
  const auto a = reg.trace().Track("kv-server");
  const auto b = reg.trace().Track("promotion-daemon");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.trace().Track("kv-server"), a);
  reg.trace().Span(a, "epoch 0", 0.0, 5.0, {{"kops", 12.0}});
  reg.trace().Span(b, "tick", 5.0, 1.0);
  ASSERT_EQ(reg.trace().events().size(), 2u);
  EXPECT_EQ(reg.trace().events()[0].track, a);
  EXPECT_EQ(reg.trace().events()[1].track, b);
}

TEST(MetricRegistryTest, MergeFromPrefixesEveryKind) {
  MetricRegistry cell;
  cell.GetCounter("ops").Add(5);
  cell.GetGauge("bw").Set(3.0);
  Histogram h;
  h.Record(1.0);
  cell.RecordHistogram("lat", h);
  cell.timeline().Sample("kops", 1.0, 10.0);
  cell.trace().Span(cell.trace().Track("kv"), "e", 0.0, 1.0);

  MetricRegistry merged;
  merged.GetCounter("MMEM/ops").Add(1);
  merged.MergeFrom(cell, "MMEM/");
  EXPECT_EQ(merged.GetCounter("MMEM/ops").value(), 6u);  // Counters add.
  EXPECT_DOUBLE_EQ(merged.GetGauge("MMEM/bw").value(), 3.0);
  EXPECT_EQ(merged.histograms().at("MMEM/lat").count(), 1u);
  EXPECT_EQ(merged.timeline().series().at("MMEM/kops").size(), 1u);
  ASSERT_EQ(merged.trace().events().size(), 1u);
  const auto& tracks = merged.trace().tracks();
  EXPECT_EQ(tracks[static_cast<size_t>(merged.trace().events()[0].track)], "MMEM/kv");
}

TEST(MetricRegistryTest, MergeOrderIsDeterministicRegardlessOfFillOrder) {
  // Two cells filled "concurrently" in different interleavings merge to the
  // same registry as long as the merge happens in cell-index order — the
  // invariant the benches rely on for --jobs-independent output.
  const auto fill = [](MetricRegistry& reg, double base) {
    reg.GetCounter("ops").Add(static_cast<uint64_t>(base));
    reg.timeline().Sample("s", base, base * 2.0);
  };
  MetricRegistry a1, b1, a2, b2;
  fill(a1, 1.0);
  fill(b1, 2.0);
  fill(b2, 2.0);  // Reverse fill order for the second pair.
  fill(a2, 1.0);

  MetricRegistry m1, m2;
  m1.MergeFrom(a1, "a/");
  m1.MergeFrom(b1, "b/");
  m2.MergeFrom(a2, "a/");
  m2.MergeFrom(b2, "b/");
  EXPECT_EQ(m1.GetCounter("a/ops").value(), m2.GetCounter("a/ops").value());
  EXPECT_EQ(m1.timeline().series().at("b/s").Latest(),
            m2.timeline().series().at("b/s").Latest());
}

TEST(MetricRegistryTest, EmptyReflectsAllStores) {
  MetricRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.timeline().Sample("s", 0.0, 1.0);
  EXPECT_FALSE(reg.empty());
}

}  // namespace
}  // namespace cxl::telemetry
