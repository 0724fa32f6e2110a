#include "src/check/invariants.h"

#include <gtest/gtest.h>

#include "src/mem/access.h"
#include "src/mem/bandwidth_solver.h"
#include "src/mem/profiles.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::check {
namespace {

using mem::AccessMix;
using mem::BandwidthSolver;
using mem::GetProfile;
using mem::MemoryPath;
using mem::PathProfile;
using mem::PiecewiseLinear;

const AccessMix kRead = AccessMix::ReadOnly();

// Flat synthetic profiles isolate the allocation discipline from the
// mix-dependent capacity curves.
PathProfile FlatProfile(const std::string& name, double peak_gbps) {
  PathProfile::Params params;
  params.name = name;
  params.idle_ns_by_read_fraction = PiecewiseLinear({{0.0, 100.0}, {1.0, 100.0}});
  params.peak_gbps_by_read_fraction = PiecewiseLinear({{0.0, peak_gbps}, {1.0, peak_gbps}});
  return PathProfile(params);
}

double TotalAchieved(const BandwidthSolver::Solution& sol) {
  double total = 0.0;
  for (const auto& f : sol.flows) {
    total += f.achieved_gbps;
  }
  return total;
}

TEST(SolverInvariantsTest, UncontendedSolutionHasNoViolations) {
  const PathProfile& dram = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &dram);
  solver.AddFlow(&dram, kRead, 20.0, {r});
  const auto sol = solver.Solve();
  EXPECT_TRUE(SolverInvariantViolations(solver, sol).empty());
  EXPECT_EQ(sol.iterations, 1) << "uncontended workloads must converge in one round";
}

TEST(SolverInvariantsTest, ContendedMaxMinSolutionSatisfiesContract) {
  const PathProfile& dram = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& cxl = GetProfile(MemoryPath::kLocalCxl);
  BandwidthSolver solver;
  const auto r_dram = solver.AddResource("dram", &dram);
  const auto r_cxl = solver.AddResource("cxl", &cxl);
  solver.AddFlow(&dram, kRead, 50.0, {r_dram});
  solver.AddFlow(&dram, AccessMix::Ratio(2, 1), 40.0, {r_dram});
  solver.AddFlow(&cxl, kRead, 30.0, {r_cxl});
  solver.AddFlow(&cxl, AccessMix::Ratio(2, 1), 45.0, {r_cxl, r_dram});
  const auto sol = solver.Solve();
  const auto violations = SolverInvariantViolations(solver, sol);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_GE(sol.iterations, 1);
  EXPECT_LE(sol.iterations, 10) << "capacity-blend fixed point failed to settle";
}

// On an asymmetric two-resource topology, capacity freed when flow A
// freezes at r2 must be re-granted to flow B at r1 (a monotone-down
// proportional scaler strands ~6 GB/s of r1 here).
TEST(SolverInvariantsTest, MaxMinRegrantsFreedCapacity) {
  const PathProfile wide = FlatProfile("flat50", 50.0);    // limit 49.0
  const PathProfile narrow = FlatProfile("flat30", 30.0);  // limit 29.4
  BandwidthSolver solver;
  const auto r1 = solver.AddResource("r1", &wide);
  const auto r2 = solver.AddResource("r2", &narrow);
  solver.AddFlow(&wide, kRead, 40.0, {r1, r2});  // A: crosses both.
  solver.AddFlow(&wide, kRead, 40.0, {r1});      // B: r1 only.
  solver.AddFlow(&wide, kRead, 40.0, {r2});      // C: r2 only.
  const auto maxmin = solver.Solve();

  // A and C split r2's 29.4 evenly (14.7 each); B takes the rest of r1
  // (49.0 - 14.7 = 34.3). Total 63.7, both resources fully used.
  EXPECT_NEAR(maxmin.flows[0].achieved_gbps, 14.7, 0.05);
  EXPECT_NEAR(maxmin.flows[1].achieved_gbps, 34.3, 0.05);
  EXPECT_NEAR(maxmin.flows[2].achieved_gbps, 14.7, 0.05);
  EXPECT_NEAR(TotalAchieved(maxmin), 63.7, 0.1);

  const auto violations = SolverInvariantViolations(solver, maxmin);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(SolverInvariantsTest, DetectsOverCommittedResource) {
  // Feed the checker a hand-corrupted solution: a flow granted more than the
  // resource limit must trip the conservation clause.
  const PathProfile flat = FlatProfile("flat50", 50.0);
  BandwidthSolver solver;
  const auto r = solver.AddResource("r", &flat);
  solver.AddFlow(&flat, kRead, 60.0, {r});
  auto sol = solver.Solve();
  sol.flows[0].achieved_gbps = 55.0;  // > 50 * kCapacityShare.
  sol.resources[0].achieved_gbps = 55.0;
  const auto violations = SolverInvariantViolations(solver, sol);
  EXPECT_FALSE(violations.empty());
}

TEST(SolverInvariantsTest, DetectsFlowAboveOfferedLoad) {
  const PathProfile flat = FlatProfile("flat50", 50.0);
  BandwidthSolver solver;
  const auto r = solver.AddResource("r", &flat);
  solver.AddFlow(&flat, kRead, 10.0, {r});
  auto sol = solver.Solve();
  sol.flows[0].achieved_gbps = 12.0;  // Above the 10.0 it offered.
  const auto violations = SolverInvariantViolations(solver, sol);
  EXPECT_FALSE(violations.empty());
}

TEST(SolverInvariantsTest, DetectsUnfairThrottling) {
  // Two identical flows on one saturated resource, but the "solution" gives
  // one of them twice the other: the fair-share clause must fire.
  const PathProfile flat = FlatProfile("flat50", 50.0);
  BandwidthSolver solver;
  const auto r = solver.AddResource("r", &flat);
  solver.AddFlow(&flat, kRead, 40.0, {r});
  solver.AddFlow(&flat, kRead, 40.0, {r});
  auto sol = solver.Solve();
  sol.flows[0].achieved_gbps = 33.0;
  sol.flows[1].achieved_gbps = 16.0;
  sol.resources[0].achieved_gbps = 49.0;  // Saturated (50 * kCapacityShare).
  const auto violations = SolverInvariantViolations(solver, sol);
  EXPECT_FALSE(violations.empty());
}

}  // namespace
}  // namespace cxl::check
