#include "src/sim/queueing.h"

#include <gtest/gtest.h>

namespace cxl::sim {
namespace {

TEST(QueueModelTest, IdleLatencyAtZeroLoad) {
  QueueModel m(97.0, 0.25, 6.0);
  EXPECT_DOUBLE_EQ(m.LatencyAt(0.0), 97.0);
}

TEST(QueueModelTest, LatencyIsMonotoneInUtilization) {
  QueueModel m(97.0, 0.25, 6.0);
  double prev = 0.0;
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    const double lat = m.LatencyAt(u);
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

TEST(QueueModelTest, FlatRegionThenSpike) {
  // The paper's headline microbenchmark shape (§3.2): latency nearly flat at
  // 50% utilization, then an exponential spike near saturation.
  QueueModel m(97.0, 0.25, 6.0);
  EXPECT_LT(m.LatencyAt(0.5), 97.0 * 1.05);   // < +5% at half load.
  EXPECT_GT(m.LatencyAt(0.99), 97.0 * 5.0);   // Blow-up near saturation.
}

TEST(QueueModelTest, LocalDramKneeInPaperRange) {
  // §3.2: "latency starts to significantly increase at 75%-83% of bandwidth
  // utilization, surpassing prior estimates of 60%".
  QueueModel m(97.0, 0.25, 6.0);
  const double knee_13 = m.KneeUtilization(1.3);
  const double knee_15 = m.KneeUtilization(1.5);
  EXPECT_GE(knee_13, 0.70);
  EXPECT_LE(knee_15, 0.88);
  EXPECT_GE(knee_15, 0.75);
}

TEST(QueueModelTest, LowerSharpnessMovesKneeLeft) {
  // Write-heavy and remote paths use lower sharpness -> earlier knee (§3.3:
  // "the latency-bandwidth knee-point shifts to the left as the proportion
  // of write operations ... increases").
  QueueModel read_like(100.0, 0.25, 6.0);
  QueueModel write_like(100.0, 0.25, 3.0);
  EXPECT_LT(write_like.KneeUtilization(1.5), read_like.KneeUtilization(1.5));
}

TEST(QueueModelTest, UtilizationForLatencyInvertsLatencyAt) {
  QueueModel m(250.0, 0.08, 5.0);
  for (double u : {0.1, 0.5, 0.8, 0.9}) {
    const double lat = m.LatencyAt(u);
    EXPECT_NEAR(m.UtilizationForLatency(lat), u, 1e-6);
  }
}

TEST(QueueModelTest, UtilizationForUnreachableLatencyClamps) {
  QueueModel m(100.0, 0.2, 4.0);
  EXPECT_DOUBLE_EQ(m.UtilizationForLatency(50.0), 0.0);
  EXPECT_DOUBLE_EQ(m.UtilizationForLatency(1e12), m.max_util());
}

TEST(QueueModelTest, ClampsOverUtilization) {
  QueueModel m(100.0, 0.2, 4.0);
  EXPECT_DOUBLE_EQ(m.LatencyAt(1.5), m.LatencyAt(m.max_util()));
  EXPECT_DOUBLE_EQ(m.LatencyAt(-0.5), 100.0);
}

}  // namespace
}  // namespace cxl::sim
