#include "src/os/bandwidth_aware.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/mem/profiles.h"
#include "src/os/numa_policy.h"
#include "src/topology/platform.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::os {
namespace {

using topology::Platform;

class PlannerTest : public ::testing::Test {
 protected:
  // SNC-4: one domain (67 GB/s read peak) + 2 CXL cards, the bandwidth-bound
  // setup of §5.
  PlannerTest() : platform_(Platform::CxlServer(true)), planner_(platform_, 0) {}

  Platform platform_;
  BandwidthAwarePlanner planner_;
};

TEST_F(PlannerTest, LowDemandStaysOnMmem) {
  PlacementObjective obj;
  obj.demand_gbps = 10.0;  // Far below any knee.
  const auto plan = planner_.Recommend(obj);
  EXPECT_EQ(plan.low_weight, 0);
  EXPECT_DOUBLE_EQ(plan.mmem_share, 1.0);
  EXPECT_NEAR(plan.gain, 0.0, 1e-12);
}

TEST_F(PlannerTest, PaperInsightOffloadBeforeSaturation) {
  // §3.4 worked example: DRAM at ~70-90% of its peak — not saturated — yet
  // offloading ~20% to CXL already wins.
  PlacementObjective obj;
  // 4 local SNC-domain DRAM nodes on socket 0 -> planner sees their sum.
  const double dram_peak =
      4.0 * mem::GetProfile(mem::MemoryPath::kLocalDram).PeakBandwidthGBps(obj.mix);
  obj.demand_gbps = 0.9 * dram_peak;
  const auto plan = planner_.Recommend(obj);
  EXPECT_GT(plan.low_weight, 0);         // Some CXL share recommended.
  EXPECT_GT(plan.mmem_share, 0.5);       // But DRAM keeps the majority.
  EXPECT_GT(plan.gain, 0.02);            // Strictly better than MMEM-only.
  EXPECT_GT(planner_.Score(plan.mmem_share, obj), planner_.Score(1.0, obj));
}

TEST_F(PlannerTest, OverloadSplitsHarder) {
  PlacementObjective obj;
  const double dram_peak =
      4.0 * mem::GetProfile(mem::MemoryPath::kLocalDram).PeakBandwidthGBps(obj.mix);
  obj.demand_gbps = 1.3 * dram_peak;
  const auto plan = planner_.Recommend(obj);
  EXPECT_GT(plan.low_weight, 0);
  EXPECT_LT(plan.mmem_share, 0.9);
  EXPECT_GT(plan.gain, 0.10);
}

TEST_F(PlannerTest, ShareShrinksMonotonicallyWithDemand) {
  PlacementObjective obj;
  double prev_share = 1.01;
  for (double demand : {20.0, 150.0, 250.0, 350.0}) {
    obj.demand_gbps = demand;
    const auto plan = planner_.Recommend(obj);
    EXPECT_LE(plan.mmem_share, prev_share) << "demand " << demand;
    prev_share = plan.mmem_share;
  }
}

TEST_F(PlannerTest, LatencyBoundWorkloadResistsOffload) {
  // A strongly latency-sensitive workload tolerates more DRAM queueing
  // before paying the 2.6x CXL idle-latency toll.
  PlacementObjective bw;
  bw.demand_gbps = 200.0;
  bw.latency_sensitivity = 0.2;
  bw.cxl_intrinsic_efficiency = 1.0;
  PlacementObjective lat = bw;
  lat.latency_sensitivity = 1.0;
  lat.cxl_intrinsic_efficiency = 0.4;
  const auto plan_bw = planner_.Recommend(bw);
  const auto plan_lat = planner_.Recommend(lat);
  EXPECT_LE(plan_bw.mmem_share, plan_lat.mmem_share);
}

TEST_F(PlannerTest, MakePolicyMatchesPlan) {
  PlacementObjective obj;
  obj.demand_gbps = 300.0;
  const auto plan = planner_.Recommend(obj);
  ASSERT_GT(plan.low_weight, 0);
  // The plan as a placement: its N:M interleave over the socket's DRAM and
  // the CXL cards puts mmem_share of each period's pages on DRAM.
  const std::vector<topology::NodeId> dram = platform_.DramNodes(0);
  const NumaPolicy policy =
      NumaPolicy::WeightedInterleave(dram, platform_.CxlNodes(), plan.top_weight, plan.low_weight);
  const std::vector<topology::NodeId> period = policy.PeriodPattern();
  const auto on_dram = std::count_if(period.begin(), period.end(), [&](topology::NodeId n) {
    return std::find(dram.begin(), dram.end(), n) != dram.end();
  });
  EXPECT_NEAR(static_cast<double>(on_dram) / static_cast<double>(period.size()), plan.mmem_share,
              1e-9);
}

TEST(PlannerScopeTest, SingleDomainScopeOffloadsEarlier) {
  // Scoped to one SNC domain (67 GB/s) the planner offloads at loads the
  // whole socket (268 GB/s) would shrug off — the §3.4 colocation case.
  const Platform platform = Platform::CxlServer(true);
  BandwidthAwarePlanner whole_socket(platform, 0);
  BandwidthAwarePlanner one_domain(platform, 0, {platform.DramNodes(0)[0]});
  PlacementObjective obj;
  obj.demand_gbps = 60.0;  // ~90% of one domain, ~22% of the socket.
  EXPECT_EQ(whole_socket.Recommend(obj).low_weight, 0);
  const auto plan = one_domain.Recommend(obj);
  EXPECT_GT(plan.low_weight, 0);
  EXPECT_GT(plan.gain, 0.02);
}

TEST(PlannerNoCxlTest, BaselineServerAlwaysMmem) {
  topology::PlatformOptions no_cxl;
  no_cxl.cxl_cards = 0;
  const Platform baseline = Platform::Build(no_cxl);
  BandwidthAwarePlanner planner(baseline, 0);
  PlacementObjective obj;
  obj.demand_gbps = 500.0;  // Hopelessly oversubscribed.
  const auto plan = planner.Recommend(obj);
  EXPECT_EQ(plan.low_weight, 0);
}

// Property sweep: the recommended plan never scores below MMEM-only.
class PlannerSweep : public ::testing::TestWithParam<double> {};

TEST_P(PlannerSweep, RecommendationNeverHurts) {
  const Platform platform = Platform::CxlServer(true);
  BandwidthAwarePlanner planner(platform, 0);
  PlacementObjective obj;
  obj.demand_gbps = GetParam();
  const auto plan = planner.Recommend(obj);
  EXPECT_GE(plan.score, plan.mmem_only_score - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Demands, PlannerSweep,
                         ::testing::Values(1.0, 50.0, 120.0, 200.0, 268.0, 320.0, 500.0));

}  // namespace
}  // namespace cxl::os
