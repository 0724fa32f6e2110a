#include "src/mem/bandwidth_solver.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/access.h"
#include "src/mem/profiles.h"
#include "src/util/rng.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::mem {
namespace {

const AccessMix kRead = AccessMix::ReadOnly();

TEST(SingleFlowTest, UnderloadedFlowGetsWhatItOffers) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  const SingleFlowPoint pt = SolveSingleFlow(p, kRead, 10.0);
  EXPECT_DOUBLE_EQ(pt.achieved_gbps, 10.0);
  EXPECT_LT(pt.latency_ns, 100.0);  // Near idle.
}

TEST(SingleFlowTest, OverloadedFlowCapsAtPeak) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  const SingleFlowPoint pt = SolveSingleFlow(p, kRead, 100.0);
  EXPECT_LE(pt.achieved_gbps, p.PeakBandwidthGBps(kRead));
  EXPECT_GT(pt.latency_ns, 200.0);  // Deep in the contention regime.
}

TEST(SolverTest, SingleFlowMatchesConvenienceApi) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 30.0, {r});
  const auto sol = solver.Solve();
  EXPECT_NEAR(sol.flows[0].achieved_gbps, 30.0, 1e-9);
  EXPECT_NEAR(sol.flows[0].latency_ns, p.LoadedLatencyNs(kRead, 30.0), 5.0);
}

TEST(SolverTest, TwoFlowsShareCapacityMaxMinFairly) {
  // Offered 60 + 30 against a ~65.7 GB/s limit. Max-min satisfies the small
  // flow in full (30 < the 32.8 fair share) and gives the big flow the rest;
  // a proportional split (43.8 / 21.9) would throttle a flow that fits under
  // its fair share.
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 60.0, {r});
  solver.AddFlow(&p, kRead, 30.0, {r});
  const auto sol = solver.Solve();
  const double limit = p.PeakBandwidthGBps(kRead) * BandwidthSolver::kCapacityShare;
  EXPECT_NEAR(sol.flows[1].achieved_gbps, 30.0, 1e-6);
  EXPECT_NEAR(sol.flows[0].achieved_gbps, limit - 30.0, 1e-6);
  const double total = sol.flows[0].achieved_gbps + sol.flows[1].achieved_gbps;
  EXPECT_NEAR(total, limit, 1e-6);  // Work-conserving.
}

TEST(SolverTest, EquallyOfferedFlowsSplitEvenly) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 60.0, {r});
  solver.AddFlow(&p, kRead, 60.0, {r});
  const auto sol = solver.Solve();
  EXPECT_NEAR(sol.flows[0].achieved_gbps, sol.flows[1].achieved_gbps, 1e-9);
}

TEST(SolverTest, IterationCounterIsOneWhenUncontended) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 10.0, {r});
  solver.AddFlow(&p, kRead, 10.0, {r});
  const auto sol = solver.Solve();
  EXPECT_EQ(sol.iterations, 1);
  EXPECT_NEAR(sol.flows[0].achieved_gbps, 10.0, 1e-9);
}

TEST(SolverTest, IterationCounterBoundedUnderContention) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, AccessMix::ReadOnly(), 60.0, {r});
  solver.AddFlow(&p, AccessMix::WriteOnly(), 60.0, {r});
  const auto sol = solver.Solve();
  EXPECT_GE(sol.iterations, 1);
  EXPECT_LE(sol.iterations, 40);
}

TEST(SolverTest, UncontendedResourceLeavesFlowsAlone) {
  const PathProfile& dram = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& cxl = GetProfile(MemoryPath::kLocalCxl);
  BandwidthSolver solver;
  const auto r_dram = solver.AddResource("dram", &dram);
  const auto r_cxl = solver.AddResource("cxl", &cxl);
  solver.AddFlow(&dram, kRead, 20.0, {r_dram});
  solver.AddFlow(&cxl, kRead, 20.0, {r_cxl});
  const auto sol = solver.Solve();
  EXPECT_NEAR(sol.flows[0].achieved_gbps, 20.0, 1e-9);
  EXPECT_NEAR(sol.flows[1].achieved_gbps, 20.0, 1e-9);
  // CXL latency higher than DRAM at equal load (the §3 "2.4-2.6x" gap).
  EXPECT_GT(sol.flows[1].latency_ns, 2.0 * sol.flows[0].latency_ns);
}

TEST(SolverTest, FlowThroughTwoResourcesTakesBottleneck) {
  // A remote-CXL-like chain: generous device resource, tight RSF resource.
  const PathProfile& local_cxl = GetProfile(MemoryPath::kLocalCxl);
  const PathProfile& remote_cxl = GetProfile(MemoryPath::kRemoteCxl);
  BandwidthSolver solver;
  const auto dev = solver.AddResource("cxl-dev", &local_cxl);
  const auto rsf = solver.AddResource("rsf", &remote_cxl);
  solver.AddFlow(&remote_cxl, kRead, 40.0, {dev, rsf});
  const auto sol = solver.Solve();
  // Achieved is capped near the RSF read-only limit (~17 GB/s), well below
  // both the offered 40 and the device's ~47.
  EXPECT_LT(sol.flows[0].achieved_gbps, 18.0);
  EXPECT_GT(sol.flows[0].achieved_gbps, 14.0);
}

TEST(SolverTest, MixedReadWriteFlowsBlendCapacity) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, AccessMix::ReadOnly(), 60.0, {r});
  solver.AddFlow(&p, AccessMix::WriteOnly(), 60.0, {r});
  const auto sol = solver.Solve();
  const double total = sol.flows[0].achieved_gbps + sol.flows[1].achieved_gbps;
  // Blended 1:1 capacity (~61.5) bounds the total, not the read-only peak.
  EXPECT_LT(total, 62.0);
  EXPECT_GT(total, 55.0);
}

TEST(SolverTest, LatencyRisesWithCongestion) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 10.0, {r});
  const double lat_light = solver.Solve().flows[0].latency_ns;
  solver.AddFlow(&p, kRead, 55.0, {r});
  const double lat_heavy = solver.Solve().flows[0].latency_ns;
  EXPECT_GT(lat_heavy, lat_light * 1.5);
}

TEST(SolverTest, ClearFlowsKeepsResources) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 10.0, {r});
  solver.ClearFlows();
  EXPECT_EQ(solver.flow_count(), 0u);
  EXPECT_EQ(solver.resource_count(), 1u);
  solver.AddFlow(&p, kRead, 10.0, {r});
  EXPECT_EQ(solver.Solve().flows.size(), 1u);
}

TEST(SolverTest, ZeroOfferedLoadIsValid) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  solver.AddFlow(&p, kRead, 0.0, {r});
  const auto sol = solver.Solve();
  EXPECT_DOUBLE_EQ(sol.flows[0].achieved_gbps, 0.0);
  EXPECT_NEAR(sol.flows[0].latency_ns, p.IdleLatencyNs(kRead), 1.0);
}

TEST(SolverTest, ManySmallFlowsFillCapacity) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  BandwidthSolver solver;
  const auto r = solver.AddResource("dram", &p);
  for (int i = 0; i < 32; ++i) {
    solver.AddFlow(&p, kRead, 5.0, {r});
  }
  const auto sol = solver.Solve();
  double total = 0.0;
  for (const auto& f : sol.flows) {
    total += f.achieved_gbps;
  }
  EXPECT_NEAR(total, p.PeakBandwidthGBps(kRead) * BandwidthSolver::kCapacityShare, 0.5);
  EXPECT_GT(sol.resources[0].utilization, 0.9);
}

// ---------------------------------------------------------------------------
// Warm-start cache (exact-reuse fast path + invalidation rules).
// ---------------------------------------------------------------------------

// Field-by-field bitwise comparison of two Solutions. EXPECT_DOUBLE_EQ is a
// bitwise check for non-NaN doubles, which is exactly the contract the
// exact-reuse fast path promises.
void ExpectSolutionsBitIdentical(const BandwidthSolver::Solution& a,
                                 const BandwidthSolver::Solution& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  ASSERT_EQ(a.resources.size(), b.resources.size());
  for (size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].achieved_gbps, b.flows[i].achieved_gbps);
    EXPECT_DOUBLE_EQ(a.flows[i].latency_ns, b.flows[i].latency_ns);
    EXPECT_DOUBLE_EQ(a.flows[i].bottleneck_utilization, b.flows[i].bottleneck_utilization);
  }
  for (size_t r = 0; r < a.resources.size(); ++r) {
    EXPECT_EQ(a.resources[r].name, b.resources[r].name);
    EXPECT_DOUBLE_EQ(a.resources[r].demand_gbps, b.resources[r].demand_gbps);
    EXPECT_DOUBLE_EQ(a.resources[r].achieved_gbps, b.resources[r].achieved_gbps);
    EXPECT_DOUBLE_EQ(a.resources[r].capacity_gbps, b.resources[r].capacity_gbps);
    EXPECT_DOUBLE_EQ(a.resources[r].utilization, b.resources[r].utilization);
  }
}

// The shared two-resource topology the warm-start tests re-solve: one DRAM
// resource, one CXL resource, and a flow set with a multi-resource member
// (the shape the KV epoch loop produces).
void AddEpochFlows(BandwidthSolver& solver, BandwidthSolver::ResourceId dram,
                   BandwidthSolver::ResourceId cxl, double load_dram, double load_cxl,
                   double load_both) {
  const PathProfile& pd = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& pc = GetProfile(MemoryPath::kLocalCxl);
  solver.AddFlow(&pd, kRead, load_dram, {dram});
  solver.AddFlow(&pc, kRead, load_cxl, {cxl});
  solver.AddFlow(&pc, AccessMix::Ratio(7, 3), load_both, {dram, cxl});
}

TEST(SolverWarmStartTest, ExactReSolveServesFromCache) {
  const PathProfile& pd = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& pc = GetProfile(MemoryPath::kLocalCxl);
  BandwidthSolver solver;
  const auto dram = solver.AddResource("dram", &pd);
  const auto cxl = solver.AddResource("cxl", &pc);
  AddEpochFlows(solver, dram, cxl, 40.0, 20.0, 15.0);

  const auto cold = solver.Solve();
  EXPECT_EQ(solver.solve_count(), 1u);
  EXPECT_EQ(solver.cache_hits(), 0u);

  // Same inputs re-offered (the steady-state epoch): bitwise-equal loads
  // must hit the cache and return the identical Solution.
  solver.ClearFlows();
  AddEpochFlows(solver, dram, cxl, 40.0, 20.0, 15.0);
  const auto warm = solver.Solve();
  EXPECT_EQ(solver.solve_count(), 2u);
  EXPECT_EQ(solver.cache_hits(), 1u);
  ExpectSolutionsBitIdentical(warm, cold);
}

TEST(SolverWarmStartTest, RandomizedLoadSequenceMatchesColdSolverBitwise) {
  // A warm solver re-solving a random load walk must stay bit-identical to
  // a from-scratch solver at every step — whether the step hit the cache
  // (load repeated) or missed (load moved). Repeats are injected every
  // third step to exercise both paths.
  const PathProfile& pd = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& pc = GetProfile(MemoryPath::kLocalCxl);
  BandwidthSolver warm;
  const auto dram = warm.AddResource("dram", &pd);
  const auto cxl = warm.AddResource("cxl", &pc);

  Rng rng(0x5eed);
  double loads[3] = {30.0, 20.0, 10.0};
  for (int step = 0; step < 24; ++step) {
    if (step % 3 != 2) {  // Two moves, then one exact repeat.
      loads[0] = 5.0 + 70.0 * rng.NextDouble();
      loads[1] = 5.0 + 40.0 * rng.NextDouble();
      loads[2] = 5.0 + 25.0 * rng.NextDouble();
    }
    warm.ClearFlows();
    AddEpochFlows(warm, dram, cxl, loads[0], loads[1], loads[2]);
    const auto warm_sol = warm.Solve();

    BandwidthSolver cold_solver;
    const auto cd = cold_solver.AddResource("dram", &pd);
    const auto cc = cold_solver.AddResource("cxl", &pc);
    AddEpochFlows(cold_solver, cd, cc, loads[0], loads[1], loads[2]);
    const auto cold_sol = cold_solver.Solve();
    ExpectSolutionsBitIdentical(warm_sol, cold_sol);
  }
  // The injected repeats must actually have exercised the cache.
  EXPECT_GE(warm.cache_hits(), 7u);
}

TEST(SolverWarmStartTest, StructuralChangesInvalidateTheCache) {
  const PathProfile& pd = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& pc = GetProfile(MemoryPath::kLocalCxl);
  BandwidthSolver solver;
  const auto dram = solver.AddResource("dram", &pd);
  const auto cxl = solver.AddResource("cxl", &pc);
  AddEpochFlows(solver, dram, cxl, 40.0, 20.0, 15.0);
  (void)solver.Solve();

  // Extra flow: structure mismatch, no hit.
  solver.AddFlow(&pc, kRead, 5.0, {cxl});
  (void)solver.Solve();
  EXPECT_EQ(solver.cache_hits(), 0u);

  // Back to the original flows: still a miss (the single-entry cache now
  // holds the four-flow inputs), then an identical re-solve hits.
  solver.ClearFlows();
  AddEpochFlows(solver, dram, cxl, 40.0, 20.0, 15.0);
  (void)solver.Solve();
  EXPECT_EQ(solver.cache_hits(), 0u);
  (void)solver.Solve();
  EXPECT_EQ(solver.cache_hits(), 1u);

  // Different flow *path set* with equal loads: no hit. (The cache keys on
  // the resource lists, not just the load vector.)
  solver.ClearFlows();
  const PathProfile& pd2 = GetProfile(MemoryPath::kLocalDram);
  solver.AddFlow(&pd2, kRead, 40.0, {dram});
  solver.AddFlow(&pc, kRead, 20.0, {cxl});
  solver.AddFlow(&pc, AccessMix::Ratio(7, 3), 15.0, {cxl});  // Was {dram, cxl}.
  const uint64_t hits_before = solver.cache_hits();
  (void)solver.Solve();
  EXPECT_EQ(solver.cache_hits(), hits_before);
}

TEST(SolverWarmStartTest, CacheHitLeavesSubsequentColdSolvesIdentical) {
  // A hit must be purely observational: solving A, hitting A, then solving B
  // must give the same B as a solver that never hit.
  const PathProfile& pd = GetProfile(MemoryPath::kLocalDram);
  const PathProfile& pc = GetProfile(MemoryPath::kLocalCxl);
  BandwidthSolver a;
  const auto ad = a.AddResource("dram", &pd);
  const auto ac = a.AddResource("cxl", &pc);
  AddEpochFlows(a, ad, ac, 40.0, 20.0, 15.0);
  (void)a.Solve();
  a.ClearFlows();
  AddEpochFlows(a, ad, ac, 40.0, 20.0, 15.0);
  (void)a.Solve();  // Hit.
  a.ClearFlows();
  AddEpochFlows(a, ad, ac, 61.0, 23.0, 9.0);
  const auto after_hit = a.Solve();

  BandwidthSolver b;
  const auto bd = b.AddResource("dram", &pd);
  const auto bc = b.AddResource("cxl", &pc);
  AddEpochFlows(b, bd, bc, 61.0, 23.0, 9.0);
  ExpectSolutionsBitIdentical(after_hit, b.Solve());
}

}  // namespace
}  // namespace cxl::mem
