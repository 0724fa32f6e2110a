// Rack-scale pooling bench (§7.1, made dynamic): N hosts sharing M CXL
// expanders through a pool scheduler, serving a multi-tenant KV fleet over a
// simulated day — the successor of the static pooling what-if table.
//
// Sweep: topology {flat, star, mesh} x expander capacity {tight, ample} x
// fault {healthy, downtrain}. Every cell runs the same seeded fleet (2M
// tenants, 64 shards, diurnal load, hotspot shards) on an 8-host/4-expander
// rack; cells differ only in fabric reach, pool headroom, and whether host
// 0's pool link down-trains to x4 mid-day. The downtrain cells must show
// tenants re-sharding away from the degraded host while per-shard SLO burn
// is accounted (kTenantReshard / SLO events in the merged event log).
//
// All cells run through the deterministic sweep runner; stdout is
// byte-identical at any --jobs (CI diffs --jobs 1 vs 8 and against
// tests/golden/bench_pool_rack.txt). The verdict section prints explicit
// CHECK lines and the binary exits non-zero if any fail.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/kv/fleet.h"
#include "src/bench/context.h"
#include "src/fault/fault.h"
#include "src/pool/memory_pool.h"
#include "src/pool/rack.h"
#include "src/pool/scheduler.h"
#include "src/runner/sweep.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace {

using namespace cxl;

constexpr double kGiBd = 1024.0 * 1024.0 * 1024.0;

// One simulated day in fleet steps (48 x 1800 s).
constexpr int kSteps = 48;
constexpr double kStepSeconds = 1800.0;
constexpr double kDaySeconds = kSteps * kStepSeconds;

struct RackCell {
  pool::RackTopology topology = pool::RackTopology::kFlat;
  const char* capacity_label = "";
  uint64_t expander_capacity_bytes = 0;
  const char* fault_label = "";
  fault::FaultPlan plan;
};

struct RackRun {
  apps::kv::FleetResult fleet;
  double pool_capacity_gib = 0.0;
};

StatusOr<RackRun> RunCell(const RackCell& cell, uint64_t fault_seed,
                          const fault::FaultTunables& tunables,
                          telemetry::MetricRegistry* sink) {
  pool::RackConfig rack_cfg;
  rack_cfg.hosts = 8;
  rack_cfg.expanders = 4;
  rack_cfg.topology = cell.topology;
  // Hosts are DRAM-lean on purpose: the pool carries a real fraction of the
  // working set (that is the deployment pooling argues for).
  rack_cfg.host_dram_bytes = 80 * kGiB;
  rack_cfg.expander_capacity_bytes = cell.expander_capacity_bytes;
  rack_cfg.slice_bytes = kGiB;
  rack_cfg.per_host_capacity_fraction = 0.75;
  pool::Rack rack(rack_cfg);

  pool::SchedulerConfig sched_cfg;
  sched_cfg.ballooning = true;
  // Releasing pooled memory migrates pages; hosts hold leases until a peer
  // actually starves (balloon reclaim) — the lazy-reclaim regime.
  sched_cfg.sticky_release = true;
  pool::PoolScheduler scheduler(rack, sched_cfg);
  scheduler.AttachTelemetry(sink);

  std::unique_ptr<fault::FaultInjector> injector;
  if (!cell.plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(cell.plan, fault_seed, tunables);
    injector->AttachTelemetry(sink);
  }

  apps::kv::FleetConfig fleet_cfg;
  // Every cell replays the same seeded tenant layout: rows differ only by
  // topology, pool headroom, and fault plan.
  fleet_cfg.seed = 7;
  fleet_cfg.steps = kSteps;
  fleet_cfg.step_seconds = kStepSeconds;
  apps::kv::KvFleetSim fleet(scheduler, fleet_cfg, sink, injector.get());
  RackRun run;
  run.fleet = fleet.Run();
  run.pool_capacity_gib = static_cast<double>(rack.TotalCapacityBytes()) / kGiBd;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::Context::FromArgs(&argc, argv, {.jobs = true, .fault_tuning = true});
  auto& bench_telemetry = ctx.telemetry();

  PrintSection(std::cout, "Pooled-CXL performance law (local CXL + switch hop)");
  Table perf({"path", "idle ns", "read peak GB/s"});
  const mem::AccessMix read = mem::AccessMix::ReadOnly();
  perf.Row()
      .Cell("CXL (direct, 1.1)")
      .Cell(mem::GetProfile(mem::MemoryPath::kLocalCxl).IdleLatencyNs(read), 1)
      .Cell(mem::GetProfile(mem::MemoryPath::kLocalCxl).PeakBandwidthGBps(read), 1);
  perf.Row()
      .Cell("CXL (pooled, 2.0)")
      .Cell(pool::PooledCxlProfile().IdleLatencyNs(read), 1)
      .Cell(pool::PooledCxlProfile().PeakBandwidthGBps(read), 1);
  perf.Row()
      .Cell("CXL-r (cross-socket)")
      .Cell(mem::GetProfile(mem::MemoryPath::kRemoteCxl).IdleLatencyNs(read), 1)
      .Cell(mem::GetProfile(mem::MemoryPath::kRemoteCxl).PeakBandwidthGBps(read), 1);
  perf.Print(std::cout);

  PrintSection(std::cout, "Capacity saving from pooling (ceil-rank p99 provisioning, CV=0.35)");
  Table econ({"hosts", "per-host p99 GiB", "pooled p99 GiB", "saving %"});
  for (int hosts : {2, 4, 8, 16}) {
    pool::PoolingEconomicsConfig cfg;
    cfg.hosts = hosts;
    const auto r = pool::EstimatePoolingEconomics(cfg);
    econ.Row()
        .Cell(static_cast<uint64_t>(hosts))
        .Cell(r.per_host_provision_gib, 1)
        .Cell(r.pooled_provision_gib / hosts, 1)
        .Cell(100.0 * r.capacity_saving, 1);
  }
  econ.Print(std::cout);

  // ---- The rack sweep: topology x pool headroom x fault state. ----
  const std::vector<std::pair<const char*, uint64_t>> capacities = {
      {"tight", 48ull << 30},  // 192 GiB pool, under the ~280 GiB demand peak.
      {"ample", 96ull << 30},  // 384 GiB pool: headroom for every cell.
  };
  // Host 0's pool link down-trains to x4 from 30240 s for a quarter day.
  const std::vector<std::pair<const char*, fault::FaultPlan>> states = {
      {"healthy", {}},
      {"downtrain",
       fault::FaultPlan().Downtrain(0.35 * kDaySeconds, 0.25 * kDaySeconds, 4)},
  };
  std::vector<RackCell> cells;
  for (const auto topo :
       {pool::RackTopology::kFlat, pool::RackTopology::kStar, pool::RackTopology::kMesh}) {
    for (const auto& cap : capacities) {
      for (const auto& st : states) {
        cells.push_back({topo, cap.first, cap.second, st.first, st.second});
      }
    }
  }
  std::vector<std::string> labels;
  for (const auto& c : cells) {
    labels.push_back(std::string(pool::RackTopologyName(c.topology)) + "/" + c.capacity_label +
                     "/" + c.fault_label);
  }
  runner::SweepOptions sweep_options = ctx.Sweep();
  sweep_options.cell_labels = labels;
  runner::SweepStats stats;
  std::vector<telemetry::MetricRegistry> sinks(bench_telemetry.enabled() ? cells.size() : 0);
  for (auto& sink : sinks) {
    bench_telemetry.ConfigureSink(&sink);
  }
  const auto grid = runner::RunSweep(
      cells,
      [&cells, &sinks, &ctx](const RackCell& cell, uint64_t /*seed*/) {
        const size_t index = static_cast<size_t>(&cell - cells.data());
        telemetry::MetricRegistry* sink = sinks.empty() ? nullptr : &sinks[index];
        return RunCell(cell, runner::CellSeed(ctx.fault_seed(), index), ctx.fault_tunables(),
                       sink);
      },
      sweep_options, &stats);
  if (!grid.ok()) {
    std::cerr << "FAILED: " << grid.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "[sweep] " << stats.Summary() << "\n";
  bench_telemetry.RecordSweep("rack", stats);
  for (size_t i = 0; i < sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(sinks[i], labels[i] + "/");
  }

  const auto at = [&](pool::RackTopology topo, const char* cap,
                      const char* fault) -> const RackRun& {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].topology == topo && std::string(cells[i].capacity_label) == cap &&
          std::string(cells[i].fault_label) == fault) {
        return (*grid)[i];
      }
    }
    std::abort();  // Unreachable: the sweep enumerates every combination.
  };

  PrintSection(std::cout,
               "Rack fleet sweep: 8 hosts x 4 expanders, 2M tenants, one simulated day");
  Table t({"topology", "pool", "faults", "util %", "stranded GiB", "unmet GiB", "spills",
           "balloons", "denied", "reshards", "mean us", "worst us", "SLO burn s"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const RackCell& c = cells[i];
    const RackRun& r = (*grid)[i];
    t.Row()
        .Cell(pool::RackTopologyName(c.topology))
        .Cell(c.capacity_label)
        .Cell(c.fault_label)
        .Cell(100.0 * r.fleet.mean_pool_utilization, 1)
        .Cell(r.fleet.scheduler.MeanStrandedBytes() / kGiBd, 1)
        .Cell(r.fleet.scheduler.MeanUnmetBytes() / kGiBd, 1)
        .Cell(r.fleet.scheduler.spill_grants)
        .Cell(r.fleet.scheduler.balloon_reclaims)
        .Cell(r.fleet.scheduler.grows_denied)
        .Cell(r.fleet.reshard_events)
        .Cell(r.fleet.mean_latency_us, 2)
        .Cell(r.fleet.peak_latency_us, 2)
        .Cell(MsToSec(r.fleet.slo_burned_ms), 1);
  }
  t.Print(std::cout);
  std::cout
      << "Reading: flat pools every expander behind one switch — free capacity is\n"
         "reachable by whoever starves, so nothing strands; star dedicates expanders\n"
         "to host groups and strands their headroom exactly when another group runs\n"
         "tight; mesh keeps sharing alive through a second switch stage, paying the\n"
         "extra hop only on spilled grants. The downtrain column is host 0's pool\n"
         "link at x4 for a quarter day: its tenants re-shard away (tenant_reshard\n"
         "events, reason=degraded_link), the survivors eat switch-latency inflation,\n"
         "and the per-shard SLO trackers burn error budget until the link recovers.\n";

  PrintSection(std::cout, "Downtrain dynamics (flat/ample): re-shard churn and SLO burn");
  Table dyn({"faults", "reshard events", "tenants moved", "SLO violations", "burn s",
             "worst burn rate"});
  for (const auto& st : states) {
    const RackRun& r = at(pool::RackTopology::kFlat, "ample", st.first);
    dyn.Row()
        .Cell(st.first)
        .Cell(r.fleet.reshard_events)
        .Cell(r.fleet.resharded_tenants)
        .Cell(static_cast<uint64_t>(r.fleet.slo_violations))
        .Cell(MsToSec(r.fleet.slo_burned_ms), 1)
        .Cell(r.fleet.worst_burn_rate, 2);
  }
  dyn.Print(std::cout);

  // ---- Verdict: the acceptance criteria as explicit CHECK lines. ----
  PrintSection(std::cout, "Rack verdict");
  bool ok = true;
  const auto check = [&ok](const std::string& label, bool pass) {
    std::cout << "CHECK " << label << ": " << (pass ? "PASS" : "FAIL") << "\n";
    ok = ok && pass;
  };
  const auto& flat_tight_down = at(pool::RackTopology::kFlat, "tight", "downtrain");
  const auto& star_tight_down = at(pool::RackTopology::kStar, "tight", "downtrain");
  const auto& mesh_tight_down = at(pool::RackTopology::kMesh, "tight", "downtrain");
  const auto& flat_ample = at(pool::RackTopology::kFlat, "ample", "healthy");
  const auto& flat_ample_down = at(pool::RackTopology::kFlat, "ample", "downtrain");
  check("flat/ample/healthy: nothing stranded, nothing denied",
        flat_ample.fleet.scheduler.MeanStrandedBytes() == 0.0 &&
            flat_ample.fleet.scheduler.grows_denied == 0);
  check("star/tight/downtrain strands capacity a flat fabric would serve",
        star_tight_down.fleet.scheduler.MeanStrandedBytes() >
            flat_tight_down.fleet.scheduler.MeanStrandedBytes());
  check("mesh/tight/downtrain spills grants beyond the home expander",
        mesh_tight_down.fleet.scheduler.spill_grants > 0);
  check("tight pools balloon-reclaim peer slack under the downtrain",
        flat_tight_down.fleet.scheduler.balloon_reclaims > 0);
  check("downtrain re-shards tenants off the degraded host",
        flat_ample_down.fleet.reshard_events > flat_ample.fleet.reshard_events);
  check("downtrain burns SLO budget the healthy run does not",
        flat_ample_down.fleet.slo_burned_ms > flat_ample.fleet.slo_burned_ms);

  if (!ctx.Write("bench_pool_rack")) {
    return 1;
  }
  return ok ? 0 : 1;
}
