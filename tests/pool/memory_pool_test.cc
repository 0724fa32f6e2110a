#include "src/pool/memory_pool.h"

#include <gtest/gtest.h>

#include "src/mem/access.h"
#include "src/util/units.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::pool {
namespace {

using namespace cxl::literals;

PoolConfig SmallPool() {
  PoolConfig cfg;
  cfg.capacity_bytes = 16_GiB;
  cfg.slice_bytes = 1_GiB;
  return cfg;
}

TEST(CxlMemoryPoolTest, AcquireRoundsUpToSlices) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(0, 1_GiB + 1).ok());
  EXPECT_EQ(pool.LeasedBytes(0), 2_GiB);
  EXPECT_EQ(pool.UsedBytes(), 2_GiB);
  EXPECT_EQ(pool.FreeBytes(), 14_GiB);
}

TEST(CxlMemoryPoolTest, ExhaustionFails) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(0, 16_GiB).ok());
  const Status s = pool.Acquire(1, 1_GiB);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.acquire_failures(), 1u);
}

TEST(CxlMemoryPoolTest, HostRangeEnforced) {
  CxlMemoryPool pool(SmallPool());
  EXPECT_EQ(pool.Acquire(-1, 1_GiB).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Acquire(16, 1_GiB).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.Acquire(15, 1_GiB).ok());
}

TEST(CxlMemoryPoolTest, PerHostCap) {
  PoolConfig cfg = SmallPool();
  cfg.per_host_capacity_fraction = 0.25;  // 4 GiB per host.
  CxlMemoryPool pool(cfg);
  ASSERT_TRUE(pool.Acquire(0, 4_GiB).ok());
  EXPECT_EQ(pool.Acquire(0, 1_GiB).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(pool.Acquire(1, 4_GiB).ok());  // Other hosts unaffected.
}

TEST(CxlMemoryPoolTest, ReleaseReturnsCapacity) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(3, 8_GiB).ok());
  ASSERT_TRUE(pool.Release(3, 4_GiB).ok());
  EXPECT_EQ(pool.LeasedBytes(3), 4_GiB);
  EXPECT_EQ(pool.FreeBytes(), 12_GiB);
}

TEST(CxlMemoryPoolTest, ReleaseClampsToLease) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(0, 2_GiB).ok());
  ASSERT_TRUE(pool.Release(0, 100_GiB).ok());
  EXPECT_EQ(pool.LeasedBytes(0), 0u);
  EXPECT_EQ(pool.UsedBytes(), 0u);
}

TEST(CxlMemoryPoolTest, ReleaseWithoutLeaseFails) {
  CxlMemoryPool pool(SmallPool());
  EXPECT_EQ(pool.Release(5, 1_GiB).code(), StatusCode::kFailedPrecondition);
}

TEST(CxlMemoryPoolTest, ReleaseAllAndActiveHosts) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(0, 2_GiB).ok());
  ASSERT_TRUE(pool.Acquire(1, 2_GiB).ok());
  EXPECT_EQ(pool.ActiveHosts(), 2);
  ASSERT_TRUE(pool.Release(0, 2_GiB).ok());
  EXPECT_EQ(pool.ActiveHosts(), 1);
  EXPECT_EQ(pool.UsedBytes(), 2_GiB);
}

TEST(CxlMemoryPoolTest, DeniedAcquireLeavesNoPhantomLease) {
  // Regression: Acquire used operator[] for the per-host-cap check, inserting
  // a zero-lease entry for the very host it was about to deny — ActiveHosts()
  // then counted hosts that never held a slice.
  PoolConfig cfg = SmallPool();
  cfg.per_host_capacity_fraction = 0.25;  // 4 GiB per host.
  CxlMemoryPool pool(cfg);
  ASSERT_TRUE(pool.Acquire(0, 4_GiB).ok());
  ASSERT_EQ(pool.ActiveHosts(), 1);
  EXPECT_EQ(pool.Acquire(1, 5_GiB).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.ActiveHosts(), 1);  // Host 1 must not appear.
  EXPECT_EQ(pool.LeasedBytes(1), 0u);
  // Exhaustion-denied requests must not leave a phantom either.
  CxlMemoryPool full(SmallPool());
  ASSERT_TRUE(full.Acquire(2, 16_GiB).ok());
  EXPECT_EQ(full.Acquire(3, 1_GiB).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(full.ActiveHosts(), 1);
}

TEST(CxlMemoryPoolTest, AcquireReleaseRoundTripConservesBooks) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(0, 3_GiB).ok());
  ASSERT_TRUE(pool.Acquire(1, 5_GiB).ok());
  ASSERT_TRUE(pool.Acquire(2, 2_GiB).ok());
  EXPECT_EQ(pool.UsedBytes(), 10_GiB);
  ASSERT_TRUE(pool.Release(1, 5_GiB).ok());
  ASSERT_TRUE(pool.Release(0, 3_GiB).ok());
  ASSERT_TRUE(pool.Release(2, 2_GiB).ok());
  EXPECT_EQ(pool.UsedBytes(), 0u);
  EXPECT_EQ(pool.FreeBytes(), SmallPool().capacity_bytes);
  EXPECT_EQ(pool.ActiveHosts(), 0);
}

TEST(CxlMemoryPoolTest, PartialReleaseRoundsToSlicesAndClamps) {
  CxlMemoryPool pool(SmallPool());
  ASSERT_TRUE(pool.Acquire(0, 4_GiB).ok());
  // A one-byte release still frees a whole slice (slice granularity).
  ASSERT_TRUE(pool.Release(0, 1).ok());
  EXPECT_EQ(pool.LeasedBytes(0), 3_GiB);
  // A release rounding above the lease clamps to it and retires the host.
  ASSERT_TRUE(pool.Release(0, 2_GiB + 1_GiB / 2).ok());
  EXPECT_EQ(pool.LeasedBytes(0), 0u);
  EXPECT_EQ(pool.ActiveHosts(), 0);
  EXPECT_EQ(pool.UsedBytes(), 0u);
}

TEST(PercentileCeilRankTest, PicksSmallestSampleCoveringQ) {
  // Regression: the floor-rank index truncated q*(n-1); with n=150, q=0.99 it
  // returned rank 148 (98.67% coverage) instead of rank 149.
  std::vector<double> samples;
  for (int i = 150; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(PercentileCeilRank(samples, 0.99), 149.0);
  EXPECT_DOUBLE_EQ(PercentileCeilRank(samples, 1.0), 150.0);
  EXPECT_DOUBLE_EQ(PercentileCeilRank(samples, 0.5), 75.0);
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(PercentileCeilRank(one, 0.99), 42.0);
  std::vector<double> tiny = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(PercentileCeilRank(tiny, 0.01), 1.0);  // Rank floor is 1.
}

TEST(CxlMemoryPoolTest, UtilizationTracksLeases) {
  CxlMemoryPool pool(SmallPool());
  EXPECT_DOUBLE_EQ(pool.Utilization(), 0.0);
  ASSERT_TRUE(pool.Acquire(0, 8_GiB).ok());
  EXPECT_DOUBLE_EQ(pool.Utilization(), 0.5);
}

TEST(CxlMemoryPoolTest, ChurnConservesCapacity) {
  // Failure-injection-flavoured churn: random acquire/release storm must
  // never corrupt the books.
  CxlMemoryPool pool(SmallPool());
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto host = static_cast<HostId>(rng.NextBounded(16));
    if (rng.NextBool(0.6)) {
      (void)pool.Acquire(host, (1 + rng.NextBounded(3)) * 1_GiB);
    } else {
      (void)pool.Release(host, (1 + rng.NextBounded(3)) * 1_GiB);
    }
    uint64_t leased = 0;
    for (HostId h = 0; h < 16; ++h) {
      leased += pool.LeasedBytes(h);
    }
    ASSERT_EQ(leased, pool.UsedBytes());
    ASSERT_LE(pool.UsedBytes(), SmallPool().capacity_bytes);
  }
}

TEST(PooledProfileTest, SwitchHopAddsLatencyOnly) {
  const auto& pooled = PooledCxlProfile();
  const auto& direct = mem::GetProfile(mem::MemoryPath::kLocalCxl);
  const mem::AccessMix read = mem::AccessMix::ReadOnly();
  EXPECT_NEAR(pooled.IdleLatencyNs(read), direct.IdleLatencyNs(read) + 2 * kCxlSwitchHopNs, 0.5);
  EXPECT_NEAR(pooled.PeakBandwidthGBps(read), direct.PeakBandwidthGBps(read), 0.1);
  // Still far cheaper than a full cross-socket CXL access.
  EXPECT_LT(pooled.IdleLatencyNs(read),
            mem::GetProfile(mem::MemoryPath::kRemoteCxl).IdleLatencyNs(read));
}

TEST(PoolChurnTest, GenerousPoolRarelyDenies) {
  PoolConfig pcfg;
  pcfg.capacity_bytes = 8ull << 40;  // 8 TiB for 16 hosts x ~192 GiB mean.
  CxlMemoryPool pool(pcfg);
  PoolChurnConfig cfg;
  const auto r = SimulatePoolChurn(pool, cfg);
  EXPECT_GT(r.grow_requests, 1000u);
  EXPECT_LT(r.denial_rate, 0.01);
  EXPECT_GT(r.mean_utilization, 0.2);
}

TEST(PoolChurnTest, TightPoolDeniesMore) {
  PoolChurnConfig cfg;
  PoolConfig generous;
  generous.capacity_bytes = 8ull << 40;
  PoolConfig tight;
  tight.capacity_bytes = 2ull << 40;
  CxlMemoryPool pool_g(generous);
  CxlMemoryPool pool_t(tight);
  const auto rg = SimulatePoolChurn(pool_g, cfg);
  const auto rt = SimulatePoolChurn(pool_t, cfg);
  EXPECT_GT(rt.denial_rate, rg.denial_rate);
  EXPECT_GT(rt.mean_utilization, rg.mean_utilization);
}

TEST(PoolChurnTest, Deterministic) {
  PoolChurnConfig cfg;
  cfg.steps = 1000;
  PoolConfig pcfg;
  pcfg.capacity_bytes = 4ull << 40;
  CxlMemoryPool a(pcfg);
  CxlMemoryPool b(pcfg);
  EXPECT_DOUBLE_EQ(SimulatePoolChurn(a, cfg).mean_utilization,
                   SimulatePoolChurn(b, cfg).mean_utilization);
}

TEST(PoolingEconomicsTest, PoolingSavesCapacity) {
  PoolingEconomicsConfig cfg;
  cfg.hosts = 16;
  cfg.scenarios = 5000;
  const auto r = EstimatePoolingEconomics(cfg);
  EXPECT_GT(r.capacity_saving, 0.10);  // Multiplexing gain is real.
  EXPECT_LT(r.capacity_saving, 0.60);
  EXPECT_GT(r.per_host_provision_gib, cfg.mean_demand_gib);          // p99 > mean.
  EXPECT_LT(r.pooled_provision_gib, 16.0 * r.per_host_provision_gib);
}

TEST(PoolingEconomicsTest, MoreHostsMoreSaving) {
  PoolingEconomicsConfig small;
  small.hosts = 2;
  small.scenarios = 5000;
  PoolingEconomicsConfig large;
  large.hosts = 16;
  large.scenarios = 5000;
  EXPECT_GT(EstimatePoolingEconomics(large).capacity_saving,
            EstimatePoolingEconomics(small).capacity_saving);
}

TEST(PoolingEconomicsTest, HigherVarianceMoreSaving) {
  PoolingEconomicsConfig calm;
  calm.demand_cv = 0.1;
  calm.scenarios = 5000;
  PoolingEconomicsConfig bursty;
  bursty.demand_cv = 0.5;
  bursty.scenarios = 5000;
  EXPECT_GT(EstimatePoolingEconomics(bursty).capacity_saving,
            EstimatePoolingEconomics(calm).capacity_saving);
}

TEST(PoolingEconomicsTest, Deterministic) {
  PoolingEconomicsConfig cfg;
  cfg.scenarios = 2000;
  const auto a = EstimatePoolingEconomics(cfg);
  const auto b = EstimatePoolingEconomics(cfg);
  EXPECT_DOUBLE_EQ(a.capacity_saving, b.capacity_saving);
}

}  // namespace
}  // namespace cxl::pool
