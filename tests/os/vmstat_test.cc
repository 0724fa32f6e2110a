#include "src/os/vmstat.h"

#include <gtest/gtest.h>

namespace cxl::os {
namespace {

TEST(VmstatTest, SampleVmCountersFillsTimelineSeries) {
  VmCounters c;
  c.pgpromote_success = 11;
  c.pgdemote = 4;
  c.promote_rate_limited = 2;
  telemetry::Timeline timeline;
  const VmCounterSeries series = AttachVmCounterSeries(timeline);
  SampleVmCounters(series, 250.0, c);
  c.pgpromote_success = 17;
  SampleVmCounters(series, 500.0, c);
  // Every counter becomes a "vmstat.<name>" series with one point per call.
  EXPECT_EQ(timeline.series().size(), 8u);
  const auto& promote = timeline.series().at("vmstat.pgpromote_success");
  ASSERT_EQ(promote.size(), 2u);
  EXPECT_DOUBLE_EQ(promote.points()[0].t_ms, 250.0);
  EXPECT_DOUBLE_EQ(promote.points()[0].value, 11.0);
  EXPECT_DOUBLE_EQ(promote.Latest(), 17.0);
  EXPECT_DOUBLE_EQ(timeline.series().at("vmstat.pgdemote").Latest(), 4.0);
  EXPECT_DOUBLE_EQ(timeline.series().at("vmstat.promote_rate_limited").Latest(), 2.0);
}

}  // namespace
}  // namespace cxl::os
