#include "src/pool/rack.h"

#include <gtest/gtest.h>

#include "src/pool/scheduler.h"
#include "src/telemetry/metrics.h"
#include "src/util/units.h"

namespace cxl::pool {
namespace {

using namespace cxl::literals;

RackConfig SmallRack(RackTopology topology) {
  RackConfig cfg;
  cfg.hosts = 4;
  cfg.expanders = 2;
  cfg.topology = topology;
  cfg.expander_capacity_bytes = 8_GiB;
  cfg.slice_bytes = 1_GiB;
  return cfg;
}

TEST(RackTest, FlatReachesEverythingAtOneHop) {
  Rack rack(SmallRack(RackTopology::kFlat));
  for (int h = 0; h < rack.hosts(); ++h) {
    EXPECT_EQ(rack.Reachable(h).size(), 2u);
    for (int e = 0; e < rack.expanders(); ++e) {
      EXPECT_EQ(rack.SwitchHops(h, e), 1);
    }
    EXPECT_EQ(rack.MinHops(h), 1);
  }
}

TEST(RackTest, StarDedicatesExpandersPerGroup) {
  Rack rack(SmallRack(RackTopology::kStar));
  for (int h = 0; h < rack.hosts(); ++h) {
    ASSERT_EQ(rack.Reachable(h).size(), 1u);
    EXPECT_EQ(rack.Reachable(h)[0], h % rack.expanders());
    EXPECT_FALSE(rack.Reaches(h, (h + 1) % rack.expanders()));
  }
}

TEST(RackTest, MeshSpillsThroughSecondStage) {
  Rack rack(SmallRack(RackTopology::kMesh));
  for (int h = 0; h < rack.hosts(); ++h) {
    const int home = h % rack.expanders();
    EXPECT_EQ(rack.SwitchHops(h, home), 1);
    EXPECT_EQ(rack.SwitchHops(h, (home + 1) % rack.expanders()), 2);
    // Nearest-first: the home expander leads the placement order.
    EXPECT_EQ(rack.Reachable(h)[0], home);
  }
}

TEST(RackTest, TopologyNames) {
  EXPECT_STREQ(RackTopologyName(RackTopology::kFlat), "flat");
  EXPECT_STREQ(RackTopologyName(RackTopology::kStar), "star");
  EXPECT_STREQ(RackTopologyName(RackTopology::kMesh), "mesh");
}

TEST(PoolSchedulerTest, GrowThenShrinkConvergesLeases) {
  Rack rack(SmallRack(RackTopology::kFlat));
  PoolScheduler sched(rack);
  ASSERT_TRUE(sched.SetDemand(0, 3_GiB).ok());
  EXPECT_EQ(rack.HostLeasedBytes(0), 3_GiB);
  EXPECT_EQ(sched.UnmetBytes(0), 0u);
  ASSERT_TRUE(sched.SetDemand(0, 1_GiB).ok());
  EXPECT_EQ(rack.HostLeasedBytes(0), 1_GiB);
  EXPECT_EQ(sched.stats().released_bytes, 2_GiB);
}

TEST(PoolSchedulerTest, StickyReleaseKeepsLeasesAsSlack) {
  SchedulerConfig cfg;
  cfg.sticky_release = true;
  Rack rack(SmallRack(RackTopology::kFlat));
  PoolScheduler sched(rack, cfg);
  ASSERT_TRUE(sched.SetDemand(0, 3_GiB).ok());
  ASSERT_TRUE(sched.SetDemand(0, 1_GiB).ok());
  EXPECT_EQ(rack.HostLeasedBytes(0), 3_GiB);  // Lease held, demand lowered.
  EXPECT_EQ(sched.demand(0), 1_GiB);
  // A starving peer balloons the slack back out.
  ASSERT_TRUE(sched.SetDemand(1, 15_GiB).ok());
  EXPECT_EQ(rack.HostLeasedBytes(0), 1_GiB);
  EXPECT_EQ(rack.HostLeasedBytes(1), 15_GiB);
  EXPECT_GE(sched.stats().balloon_reclaims, 1u);
}

TEST(PoolSchedulerTest, BalloonReclaimRespectsVictimDemand) {
  Rack rack(SmallRack(RackTopology::kFlat));
  PoolScheduler sched(rack);
  ASSERT_TRUE(sched.SetDemand(0, 6_GiB).ok());
  ASSERT_TRUE(sched.SetDemand(1, 6_GiB).ok());
  // 16 GiB pool, 12 leased. Host 2 wants 6: free covers 4, the balloon may
  // not deflate peers below their declared demand, so the grow is denied.
  EXPECT_EQ(sched.SetDemand(2, 6_GiB).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rack.HostLeasedBytes(0), 6_GiB);
  EXPECT_EQ(rack.HostLeasedBytes(1), 6_GiB);
  EXPECT_EQ(rack.HostLeasedBytes(2), 4_GiB);  // Partial grant kept.
  EXPECT_EQ(sched.UnmetBytes(2), 2_GiB);
  EXPECT_EQ(sched.stats().grows_denied, 1u);
}

TEST(PoolSchedulerTest, StarStrandsWhatFlatServes) {
  // Group 0 (hosts 0,2 -> expander 0) starves while group 1's expander
  // holds free capacity. Flat serves it; star strands it.
  for (auto t : {RackTopology::kFlat, RackTopology::kStar}) {
    Rack rack(SmallRack(t));
    PoolScheduler sched(rack);
    (void)sched.SetDemand(0, 8_GiB);
    const Status s = sched.SetDemand(2, 4_GiB);
    sched.EndStep();
    if (t == RackTopology::kFlat) {
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(sched.StrandedBytes(), 0u);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(sched.UnmetBytes(2), 4_GiB);
      EXPECT_EQ(sched.StrandedBytes(), 8_GiB);  // Expander 1 is idle.
      EXPECT_EQ(sched.stats().peak_stranded_bytes, 8_GiB);
    }
  }
}

TEST(PoolSchedulerTest, MeshGrowSpillsNearestFirst) {
  Rack rack(SmallRack(RackTopology::kMesh));
  PoolScheduler sched(rack);
  // Host 0's home expander (0) holds 8 GiB; asking for 10 spills 2 onto
  // expander 1 through the second switch stage.
  ASSERT_TRUE(sched.SetDemand(0, 10_GiB).ok());
  EXPECT_EQ(rack.expander(0).LeasedBytes(0), 8_GiB);
  EXPECT_EQ(rack.expander(1).LeasedBytes(0), 2_GiB);
  EXPECT_EQ(sched.stats().spill_grants, 1u);
}

TEST(PoolSchedulerTest, EveryBalloonReclaimIsRecorded) {
  // Sticky leases on a mesh: peers keep slack that starving hosts balloon
  // back out. Each SetDemand that deflates victims records one event naming
  // them and the MiB they gave up.
  Rack rack(SmallRack(RackTopology::kMesh));
  SchedulerConfig cfg;
  cfg.sticky_release = true;
  PoolScheduler sched(rack, cfg);
  telemetry::MetricRegistry sink;
  sched.AttachTelemetry(&sink);
  size_t reclaiming_calls = 0;
  for (int step = 0; step < 32; ++step) {
    for (int h = 0; h < rack.hosts(); ++h) {
      const SchedulerStats before = sched.stats();
      const size_t events_before = sink.events().size();
      (void)sched.SetDemand(h, ((step * 7 + h * 3) % 6) * 1_GiB);
      const uint64_t victims = sched.stats().balloon_reclaims - before.balloon_reclaims;
      const uint64_t bytes =
          sched.stats().balloon_reclaimed_bytes - before.balloon_reclaimed_bytes;
      if (victims == 0) {
        EXPECT_EQ(sink.events().size(), events_before);
        continue;
      }
      ++reclaiming_calls;
      ASSERT_EQ(sink.events().size(), events_before + 1);
      size_t i = 0;
      sink.events().ForEach([&](const telemetry::Event& event) {
        if (i++ == events_before) {
          EXPECT_EQ(event.kind, telemetry::EventKind::kPoolBalloonReclaim);
          EXPECT_EQ(event.b, static_cast<double>(victims));
          EXPECT_EQ(event.a, BytesToMiB(bytes));
        }
      });
    }
    sched.EndStep();
  }
  EXPECT_GT(reclaiming_calls, 0u);
}

TEST(PoolSchedulerTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Rack rack(SmallRack(RackTopology::kMesh));
    SchedulerConfig cfg;
    cfg.sticky_release = true;
    PoolScheduler sched(rack, cfg);
    for (int step = 0; step < 32; ++step) {
      for (int h = 0; h < rack.hosts(); ++h) {
        const uint64_t demand = ((step * 7 + h * 3) % 6) * 1_GiB;
        (void)sched.SetDemand(h, demand);
      }
      sched.EndStep();
    }
    return sched.stats();
  };
  const SchedulerStats a = run();
  const SchedulerStats b = run();
  EXPECT_EQ(a.granted_bytes, b.granted_bytes);
  EXPECT_EQ(a.released_bytes, b.released_bytes);
  EXPECT_EQ(a.balloon_reclaimed_bytes, b.balloon_reclaimed_bytes);
  EXPECT_EQ(a.spill_grants, b.spill_grants);
  EXPECT_DOUBLE_EQ(a.stranded_byte_steps, b.stranded_byte_steps);
}

}  // namespace
}  // namespace cxl::pool
