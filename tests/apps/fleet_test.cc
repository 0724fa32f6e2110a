#include "src/apps/kv/fleet.h"

#include <string>

#include <gtest/gtest.h>

#include "src/fault/fault.h"
#include "src/pool/rack.h"
#include "src/pool/scheduler.h"
#include "src/telemetry/metrics.h"

namespace cxl::apps::kv {
namespace {

pool::RackConfig TestRack() {
  pool::RackConfig cfg;
  cfg.hosts = 4;
  cfg.expanders = 2;
  cfg.host_dram_bytes = 20ull << 30;
  cfg.expander_capacity_bytes = 24ull << 30;
  cfg.per_host_capacity_fraction = 0.75;
  return cfg;
}

FleetConfig TestFleet() {
  FleetConfig cfg;
  cfg.tenants = 200'000;
  cfg.shards = 16;
  cfg.steps = 24;
  cfg.step_seconds = 3600.0;
  cfg.seed = 11;
  return cfg;
}

FleetResult RunFleet(const FleetConfig& cfg, fault::FaultInjector* faults,
                     telemetry::MetricRegistry* telemetry = nullptr) {
  pool::Rack rack(TestRack());
  pool::SchedulerConfig sched_cfg;
  sched_cfg.sticky_release = true;
  pool::PoolScheduler sched(rack, sched_cfg);
  if (telemetry != nullptr) {
    sched.AttachTelemetry(telemetry);
  }
  KvFleetSim sim(sched, cfg, telemetry, faults);
  return sim.Run();
}

TEST(KvFleetSimTest, DeterministicAcrossRuns) {
  const FleetResult a = RunFleet(TestFleet(), nullptr);
  const FleetResult b = RunFleet(TestFleet(), nullptr);
  EXPECT_DOUBLE_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_DOUBLE_EQ(a.peak_latency_us, b.peak_latency_us);
  EXPECT_DOUBLE_EQ(a.mean_pool_utilization, b.mean_pool_utilization);
  EXPECT_EQ(a.reshard_events, b.reshard_events);
  EXPECT_EQ(a.resharded_tenants, b.resharded_tenants);
  EXPECT_DOUBLE_EQ(a.slo_burned_ms, b.slo_burned_ms);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timeline[i].mean_latency_us, b.timeline[i].mean_latency_us);
  }
}

TEST(KvFleetSimTest, TelemetryIsObservational) {
  telemetry::MetricRegistry sink;
  const FleetResult bare = RunFleet(TestFleet(), nullptr);
  const FleetResult observed = RunFleet(TestFleet(), nullptr, &sink);
  EXPECT_DOUBLE_EQ(bare.mean_latency_us, observed.mean_latency_us);
  EXPECT_EQ(bare.reshard_events, observed.reshard_events);
}

TEST(KvFleetSimTest, DowntrainReshardsTenantsOffDegradedHost) {
  const FleetConfig cfg = TestFleet();
  const FleetResult healthy = RunFleet(cfg, nullptr);

  fault::FaultPlan plan;
  const double day = cfg.steps * cfg.step_seconds;
  plan.Downtrain(0.3 * day, 0.3 * day, 4);
  fault::FaultInjector injector(plan, /*seed=*/7);
  telemetry::MetricRegistry sink;
  const FleetResult degraded = RunFleet(cfg, &injector, &sink);

  // Tenants leave the degraded host (reason=degraded_link events land in the
  // sink) and pay latency the healthy run never sees.
  EXPECT_GT(degraded.reshard_events, healthy.reshard_events);
  EXPECT_GT(degraded.resharded_tenants, 0u);
  EXPECT_GT(degraded.peak_latency_us, healthy.peak_latency_us);
  int reshard_events = 0;
  int degraded_link_events = 0;
  sink.events().ForEach([&](const telemetry::Event& event) {
    if (event.kind == telemetry::EventKind::kTenantReshard) {
      ++reshard_events;
      const std::string reason = telemetry::EventReasonName(event.kind, event.reason);
      degraded_link_events += reason == "degraded_link" ? 1 : 0;
    }
  });
  EXPECT_GT(reshard_events, 0);
  EXPECT_GT(degraded_link_events, 0);
}

}  // namespace
}  // namespace cxl::apps::kv
