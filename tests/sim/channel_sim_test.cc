// Validates that the analytic loaded-latency law (QueueModel) is the right
// *family* by comparing against a first-principles discrete-event channel
// simulation.
#include "tests/sim/channel_sim.h"

#include <gtest/gtest.h>

#include "src/sim/queueing.h"

namespace cxl::sim {
namespace {

ChannelSimConfig FastConfig() {
  ChannelSimConfig cfg;
  cfg.requests = 60'000;
  return cfg;
}

TEST(ChannelSimTest, CapacityFromBankParallelism) {
  MemoryChannelSim sim(FastConfig());
  // 47 banks x 64 B / 45 ns mean = ~66.8 GB/s — the calibrated MMEM peak.
  EXPECT_NEAR(sim.CapacityGBps(), 67.0, 1.0);
}

TEST(ChannelSimTest, IdleLatencyNearCalibratedMmem) {
  MemoryChannelSim sim(FastConfig());
  EXPECT_NEAR(sim.IdleLatencyNs(), 97.0, 1.0);
  // Light load measures close to idle.
  const auto pt = sim.Run(0.05 * sim.CapacityGBps());
  EXPECT_NEAR(pt.mean_latency_ns, sim.IdleLatencyNs(), 3.0);
}

TEST(ChannelSimTest, LatencyFlatThenSpikes) {
  MemoryChannelSim sim(FastConfig());
  const double idle = sim.IdleLatencyNs();
  // Flat region: at 50% load the mean barely moves.
  EXPECT_LT(sim.Run(0.5 * sim.CapacityGBps()).mean_latency_ns, idle * 1.12);
  // Spike: near saturation, queueing has roughly doubled the latency.
  EXPECT_GT(sim.Run(0.97 * sim.CapacityGBps()).mean_latency_ns, idle * 1.8);
}

TEST(ChannelSimTest, KneeInPaperBand) {
  // The simulated knee (latency crossing 1.3x idle) must land in the
  // paper's 75-83% band — the same place the analytic model puts it.
  MemoryChannelSim sim(FastConfig());
  const double idle = sim.IdleLatencyNs();
  const double cap = sim.CapacityGBps();
  double knee_util = 1.0;
  for (double u = 0.60; u <= 0.98; u += 0.02) {
    if (sim.Run(u * cap).mean_latency_ns > 1.3 * idle) {
      knee_util = u;
      break;
    }
  }
  EXPECT_GE(knee_util, 0.72);
  EXPECT_LE(knee_util, 0.92);
}

TEST(ChannelSimTest, LatencyMonotoneInLoad) {
  MemoryChannelSim sim(FastConfig());
  const auto sweep = sim.Sweep(8);
  for (size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].mean_latency_ns, sweep[i - 1].mean_latency_ns * 0.98)
        << "point " << i;  // 2% simulation-noise allowance.
  }
}

TEST(ChannelSimTest, ThroughputTracksOfferedUntilSaturation) {
  MemoryChannelSim sim(FastConfig());
  const auto pt = sim.Run(0.6 * sim.CapacityGBps());
  EXPECT_NEAR(pt.achieved_gbps, pt.offered_gbps, 0.08 * pt.offered_gbps);
}

TEST(ChannelSimTest, TailWorseThanMean) {
  MemoryChannelSim sim(FastConfig());
  const auto pt = sim.Run(0.9 * sim.CapacityGBps());
  EXPECT_GT(pt.p99_latency_ns, pt.mean_latency_ns);
}

TEST(ChannelSimTest, AnalyticLawMatchesSimulatedCurve) {
  // Family-level validation: across the operating range the analytic
  // QueueModel (as calibrated for local DRAM) and the first-principles
  // simulation agree within a factor of ~1.6, tightly so below the knee.
  // (The simulated tail is shallower than measured hardware because the
  // d-choice scheduler idealizes away refresh and write-turnaround stalls;
  // the analytic law is calibrated to the hardware.)
  MemoryChannelSim sim(FastConfig());
  QueueModel analytic(sim.IdleLatencyNs(), 0.25, 6.0);
  for (double u : {0.2, 0.5, 0.7, 0.8}) {
    const double simulated = sim.Run(u * sim.CapacityGBps()).mean_latency_ns;
    const double predicted = analytic.LatencyAt(u);
    EXPECT_NEAR(simulated, predicted, 0.15 * predicted) << "u=" << u;
  }
  for (double u : {0.9, 0.95}) {
    const double simulated = sim.Run(u * sim.CapacityGBps()).mean_latency_ns;
    const double predicted = analytic.LatencyAt(u);
    EXPECT_GT(simulated / predicted, 0.3) << "u=" << u;
    EXPECT_LT(simulated / predicted, 1.6) << "u=" << u;
  }
}

TEST(ChannelSimTest, DeterministicUnderSeed) {
  MemoryChannelSim sim(FastConfig());
  const auto a = sim.Run(30.0);
  const auto b = sim.Run(30.0);
  EXPECT_DOUBLE_EQ(a.mean_latency_ns, b.mean_latency_ns);
}

}  // namespace
}  // namespace cxl::sim
