// Property sweeps over the full (path x mix x pattern) grid: invariants any
// sane memory model must satisfy, independent of calibration values.
#include <gtest/gtest.h>

#include <tuple>

#include "src/mem/access.h"
#include "src/mem/bandwidth_solver.h"
#include "src/mem/profiles.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::mem {
namespace {

using Grid = std::tuple<MemoryPath, double, AccessPattern>;

class ProfileGridTest : public ::testing::TestWithParam<Grid> {
 protected:
  const PathProfile& profile() const { return GetProfile(std::get<0>(GetParam())); }
  AccessMix mix() const { return AccessMix{std::get<1>(GetParam()), true}; }
  AccessPattern pattern() const { return std::get<2>(GetParam()); }
};

TEST_P(ProfileGridTest, IdleLatencyPositiveAndFinite) {
  const double idle = profile().IdleLatencyNs(mix(), pattern());
  EXPECT_GT(idle, 0.0);
  EXPECT_LT(idle, 1e6);  // Under a millisecond even for SSD.
}

TEST_P(ProfileGridTest, PeakBandwidthPositive) {
  EXPECT_GT(profile().PeakBandwidthGBps(mix(), pattern()), 0.0);
}

TEST_P(ProfileGridTest, LoadedLatencyNeverBelowIdle) {
  const double idle = profile().IdleLatencyNs(mix(), pattern());
  const double peak = profile().PeakBandwidthGBps(mix(), pattern());
  for (double frac : {0.0, 0.25, 0.5, 0.75, 0.95, 1.5}) {
    EXPECT_GE(profile().LoadedLatencyNs(mix(), frac * peak, pattern()), idle - 1e-9);
  }
}

TEST_P(ProfileGridTest, AchievedBandwidthBounded) {
  const double peak = profile().PeakBandwidthGBps(mix(), pattern());
  for (double frac : {0.1, 0.9, 1.0, 1.5, 3.0}) {
    const double achieved = profile().AchievedBandwidthGBps(mix(), frac * peak, pattern());
    EXPECT_GE(achieved, 0.0);
    EXPECT_LE(achieved, peak + 1e-9);
    EXPECT_LE(achieved, frac * peak + 1e-9);
  }
}

TEST_P(ProfileGridTest, QueueModelConsistentWithLoadedLatency) {
  const double peak = profile().PeakBandwidthGBps(mix(), pattern());
  const auto qm = profile().MakeQueueModel(mix(), pattern());
  for (double u : {0.1, 0.5, 0.8}) {
    EXPECT_NEAR(qm.LatencyAt(u), profile().LoadedLatencyNs(mix(), u * peak, pattern()), 1e-6);
  }
}

TEST_P(ProfileGridTest, SingleFlowSolverAgrees) {
  const double peak = profile().PeakBandwidthGBps(mix(), pattern());
  const SingleFlowPoint pt = SolveSingleFlow(profile(), mix(), 0.6 * peak, pattern());
  EXPECT_NEAR(pt.achieved_gbps, 0.6 * peak, 1e-9);
  EXPECT_NEAR(pt.utilization, 0.6, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProfileGridTest,
    ::testing::Combine(::testing::Values(MemoryPath::kLocalDram, MemoryPath::kRemoteDram,
                                         MemoryPath::kLocalCxl, MemoryPath::kRemoteCxl,
                                         MemoryPath::kSsd),
                       ::testing::Values(0.0, 0.25, 0.5, 2.0 / 3.0, 0.75, 1.0),
                       ::testing::Values(AccessPattern::kSequential, AccessPattern::kRandom)));

// Solver conservation: however many flows contend, total delivered bandwidth
// never exceeds the blended capacity.
class SolverConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverConservationTest, TotalNeverExceedsCapacity) {
  const int flows = GetParam();
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  for (int i = 0; i < flows; ++i) {
    // Alternate mixes to exercise capacity blending.
    const AccessMix mix = i % 2 == 0 ? AccessMix::ReadOnly() : AccessMix::Ratio(1, 1);
    solver.AddFlow(&p, mix, 10.0 + i, {r});
  }
  const auto sol = solver.Solve();
  double total = 0.0;
  double read_total = 0.0;
  for (size_t i = 0; i < sol.flows.size(); ++i) {
    total += sol.flows[i].achieved_gbps;
    read_total += sol.flows[i].achieved_gbps * (i % 2 == 0 ? 1.0 : 0.5);
  }
  const AccessMix blended{total > 0.0 ? read_total / total : 1.0, true};
  EXPECT_LE(total, p.PeakBandwidthGBps(blended) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, SolverConservationTest, ::testing::Values(1, 2, 5, 16, 64));

TEST(SolverScalingTest, MaxMinEqualizesThrottledFlowsUnderScaling) {
  // Once every flow is above its fair share, max-min gives them *equal*
  // allocations regardless of how unequal the offered loads are — and
  // scaling the offered loads further cannot change that.
  const PathProfile& p = GetProfile(MemoryPath::kLocalCxl);
  auto run = [&](double scale) {
    BandwidthSolver solver;
    const auto r = solver.AddResource("cxl", &p);
    solver.AddFlow(&p, AccessMix::ReadOnly(), 40.0 * scale, {r});
    solver.AddFlow(&p, AccessMix::ReadOnly(), 20.0 * scale, {r});
    const auto sol = solver.Solve();
    return sol.flows[0].achieved_gbps / sol.flows[1].achieved_gbps;
  };
  // At scale 2 both flows (80, 40) exceed the ~23 GB/s fair share: equal
  // split. Scaling further must not change the ratio.
  EXPECT_NEAR(run(2.0), 1.0, 1e-6);
  EXPECT_NEAR(run(2.0), run(4.0), 1e-6);
  // At scale 1 the small flow (20) fits under its fair share and is served
  // in full; the big flow takes the remainder (~26.2 / 20).
  EXPECT_NEAR(run(1.0), (p.PeakBandwidthGBps(AccessMix::ReadOnly()) *
                             BandwidthSolver::kCapacityShare -
                         20.0) /
                            20.0,
              1e-6);
}

}  // namespace
}  // namespace cxl::mem
