// Resilience sweep: what each layer's graceful-degradation response costs
// under the fault taxonomy of src/fault. Three tables:
//
//   (a) KeyDB under per-scenario fault plans (down-train, CRC storm,
//       poisoned cachelines, daemon stall, the composite storm on
//       Hot-Promote; flash IO errors on MMEM-SSD-0.2) — throughput loss,
//       tail inflation, and the fault accounting each response leaves
//       behind (poison retries, quarantined pages, shed arrivals).
//   (b) Spark TPC-H Q9 with shuffle-fetch failures while the link is
//       degraded — re-executed partitions and the retry seconds they cost.
//   (c) LLM serving under a CXL bandwidth collapse — the batch-shrink
//       response trades tokens/s for per-request latency inside the SLO.
//
// The KeyDB scenarios run through the parallel SweepRunner with per-cell
// fault seeds derived via runner::CellSeed, so output is byte-identical for
// any --jobs value at a fixed --fault-seed (the bench_fault_storms_golden
// and _jobs_invariance ctests diff --jobs 1 and --jobs 8 against the golden). Passing --faults SPEC appends one extra
// scenario running the user's plan on Hot-Promote.
#include <iostream>
#include <vector>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/telemetry/anomaly.h"
#include "src/telemetry/slo.h"
#include "src/util/units.h"

namespace {

using namespace cxl;

struct Scenario {
  std::string label;
  core::CapacityConfig config;
  fault::FaultPlan plan;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

core::KeyDbExperimentOptions KvOptions() {
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 16 * kGiB;  // 1/32-scale 512 GB shape: fast under TSan.
  opt.total_ops = 90'000;
  opt.warmup_ops = 20'000;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::Context::FromArgs(&argc, argv,
                                      {.faults = true, .fault_tuning = true, .tiering = true});
  auto& bench_telemetry = ctx.telemetry();

  // Windows are sub-second: the scaled run covers ~0.5 s of simulated time,
  // so every fault activates early and (mostly) persists to the end.
  std::vector<Scenario> scenarios = {
      {"healthy", core::CapacityConfig::kHotPromote, {}},
      {"downtrain x8", core::CapacityConfig::kHotPromote,
       fault::FaultPlan().Downtrain(0.05, kInf, 8)},
      {"downtrain x4", core::CapacityConfig::kHotPromote,
       fault::FaultPlan().Downtrain(0.05, kInf, 4)},
      {"crc storm", core::CapacityConfig::kHotPromote,
       fault::FaultPlan().CrcStorm(0.05, kInf, 0.15)},
      {"poisoned lines", core::CapacityConfig::kHotPromote,
       fault::FaultPlan().Poison(0.0, kInf, 2e-4)},
      {"dram throttle", core::CapacityConfig::kHotPromote,
       fault::FaultPlan().DramThrottle(0.05, kInf, 0.25)},
      {"daemon stall", core::CapacityConfig::kHotPromote,
       fault::FaultPlan().DaemonStall(0.02, kInf)},
      {"storm", core::CapacityConfig::kHotPromote,
       // FaultPlan::Storm() compressed ~10x onto the scaled run's clock.
       fault::FaultPlan()
           .Downtrain(0.05, 0.3, 8)
           .CrcStorm(0.1, 0.2, 0.15)
           .Poison(0.0, kInf, 2e-4)
           .DaemonStall(0.15, 0.15)
           .FlashErrors(0.05, kInf, 0.01)},
      {"healthy (ssd)", core::CapacityConfig::kMmemSsd02, {}},
      {"flash errors", core::CapacityConfig::kMmemSsd02,
       fault::FaultPlan().FlashErrors(0.0, kInf, 0.02)},
  };
  if (ctx.faults_enabled()) {
    scenarios.push_back({"--faults", core::CapacityConfig::kHotPromote, ctx.faults()});
  }

  std::vector<std::string> labels;
  for (const auto& s : scenarios) {
    labels.push_back(s.label);
  }
  runner::SweepOptions sweep_options = ctx.Sweep();
  sweep_options.cell_labels = labels;
  runner::SweepStats stats;
  std::vector<telemetry::MetricRegistry> cell_sinks(
      bench_telemetry.enabled() ? scenarios.size() : 0);
  for (auto& sink : cell_sinks) {
    bench_telemetry.ConfigureSink(&sink);  // --events-ring flight recorder.
  }
  const auto grid = runner::RunSweep(
      scenarios,
      [&scenarios, &cell_sinks, &ctx](const Scenario& scenario, uint64_t /*seed*/) {
        const size_t index = static_cast<size_t>(&scenario - scenarios.data());
        core::KeyDbExperimentOptions opt = KvOptions();
        // Every scenario replays the same workload seed: rows differ only by
        // fault plan, so "x healthy" is purely the degradation cost.
        opt.env = ctx.Env(1);
        opt.env.faults = scenario.plan;
        opt.env.fault_seed = runner::CellSeed(ctx.fault_seed(), index);
        opt.env.telemetry = cell_sinks.empty() ? nullptr : &cell_sinks[index];
        return core::RunKeyDbExperiment(scenario.config, workload::YcsbWorkload::kA, opt);
      },
      sweep_options, &stats);
  if (!grid.ok()) {
    std::cerr << "FAILED: " << grid.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "[sweep] " << stats.Summary() << "\n";
  bench_telemetry.RecordSweep("fault_storms", stats);

  // Each scenario compares against the first healthy row sharing its config.
  const auto healthy_index = [&](const Scenario& s) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      if (scenarios[i].config == s.config && scenarios[i].plan.empty()) {
        return i;
      }
    }
    return size_t{0};
  };
  const auto healthy_kops = [&](const Scenario& s) {
    return (*grid)[healthy_index(s)].server.throughput_kops;
  };

  // SLO + anomaly pass, per cell and before the merge so events land in the
  // cell they describe. Objectives derive from the matched healthy row: epoch
  // mean latency within 1.5x healthy, epoch throughput above 0.7x healthy.
  // Violations attribute to the fault window active (else most recently
  // opened) at the breach time — post-hoc over the scenario's static plan,
  // so the pass itself is deterministic at any --jobs.
  for (size_t i = 0; i < cell_sinks.size(); ++i) {
    const auto& healthy = (*grid)[healthy_index(scenarios[i])].server;
    double healthy_lat_us = 0.0;
    uint64_t lat_epochs = 0;
    for (const auto& e : healthy.timeline) {
      if (e.mean_latency_us > 0.0) {
        healthy_lat_us += e.mean_latency_us;
        ++lat_epochs;
      }
    }
    telemetry::SloSpec spec;
    spec.workload = "kv";
    if (lat_epochs > 0) {
      spec.max_latency_us = 1.5 * healthy_lat_us / lat_epochs;
    }
    spec.min_throughput = 0.7 * healthy.throughput_kops;
    const fault::FaultPlan& plan = scenarios[i].plan;
    telemetry::SloTracker slo(spec, &cell_sinks[i], [&plan](double t_ms) {
      return fault::AttributeWindowAt(plan, MsToSec(t_ms));
    });
    for (const auto& e : (*grid)[i].server.timeline) {
      if (e.mean_latency_us <= 0.0) {
        continue;  // Warm-up epochs carry no measured latency.
      }
      slo.Observe(e.end_ms, e.mean_latency_us, e.kops);
    }
    slo.Finish();
    telemetry::DetectAnomalies(cell_sinks[i]);
  }
  for (size_t i = 0; i < cell_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(cell_sinks[i], labels[i] + "/");
  }

  PrintSection(std::cout, "Fault storms (a): KeyDB YCSB-A degradation responses");
  Table kv({"scenario", "kops", "x healthy", "p99 us", "migr MB", "poisoned",
            "quarantined", "flash", "shed ops"});
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const auto& r = (*grid)[i].server;
    kv.Row()
        .Cell(scenarios[i].label)
        .Cell(r.throughput_kops, 1)
        .Cell(healthy_kops(scenarios[i]) > 0.0
                  ? r.throughput_kops / healthy_kops(scenarios[i])
                  : 0.0,
              3)
        .Cell(r.all_latency_us.p99(), 0)
        .Cell(BytesToMBd(r.migrated_bytes), 1)
        .Cell(r.poisoned_reads)
        .Cell(r.quarantined_pages)
        .Cell(r.flash_errors)
        .Cell(r.shed_ops);
  }
  kv.Print(std::cout);
  std::cout << "Reading: lane down-training inflates the CXL loaded latency by the §3.4\n"
               "flit accounting; poison costs rereads plus page quarantine; the stall\n"
               "freezes promotion (watch migrated volume in --metrics-out); the storm\n"
               "composes all of them and can arm load shedding.\n";

  PrintSection(std::cout, "Fault storms (b): Spark TPC-H Q9 shuffle re-execution");
  Table sp({"scenario", "total s", "shuffle s", "reexec parts", "retry s"});
  for (const auto& [label, plan] :
       {std::pair<std::string, fault::FaultPlan>{"healthy", {}},
        {"downtrain x4", fault::FaultPlan().Downtrain(0.0, kInf, 4)}}) {
    core::ExperimentEnv env = ctx.Env();
    env.faults = plan;
    const auto res = core::RunSparkCell(
        {apps::spark::SparkConfig::Interleave(1, 1), *apps::spark::FindQuery("Q9")}, env);
    sp.Row()
        .Cell(label)
        .Cell(res.total_seconds, 1)
        .Cell(res.ShuffleSeconds(), 1)
        .Cell(static_cast<uint64_t>(res.reexecuted_partitions))
        .Cell(res.retry_seconds, 2);
  }
  sp.Print(std::cout);

  PrintSection(std::cout, "Fault storms (c): LLM serving under CXL bandwidth collapse");
  Table llm({"scenario", "tok/s", "req/s", "mean s", "p99 s", "shrinks", "min batch"});
  for (const auto& [label, plan] :
       {std::pair<std::string, fault::FaultPlan>{"healthy", {}},
        {"bw collapse",
         fault::FaultPlan().Downtrain(0.0, kInf, 4).CrcStorm(0.0, kInf, 0.2)}}) {
    core::LlmExperimentOptions opt;
    opt.stack.placement = apps::llm::LlmPlacement::Interleave(1, 2);
    opt.requests = 48;
    opt.env = ctx.Env();
    opt.env.faults = plan;
    const auto res = core::RunLlmExperiment(opt);
    if (!res.ok()) {
      std::cerr << "FAILED: " << res.status().ToString() << "\n";
      return 1;
    }
    llm.Row()
        .Cell(label)
        .Cell(res->stats.tokens_per_second, 1)
        .Cell(res->stats.requests_per_second, 2)
        .Cell(res->stats.mean_request_seconds, 3)
        .Cell(res->latency_s.p99(), 3)
        .Cell(res->stats.batch_shrinks)
        .Cell(static_cast<uint64_t>(res->stats.min_batch));
  }
  llm.Print(std::cout);
  std::cout << "Reading: shrinking the decode batch sheds KV-cache streaming so each\n"
               "token stays within the per-token latency SLO on the degraded link; the\n"
               "remaining slowdown is queueing on the saturated backends, which the\n"
               "smaller batch bounds instead of letting every request inflate together.\n";

  if (!ctx.Write("bench_fault_storms")) {
    return 1;
  }
  return 0;
}
