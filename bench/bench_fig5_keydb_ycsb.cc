// Regenerates Fig. 5: KeyDB YCSB latency and throughput under the Table 1
// configurations.
//
//   (a) average throughput of YCSB A-D per configuration;
//   (b) tail latency of YCSB-A (p50/p95/p99/p999);
//   (c) read-latency CDF of YCSB-C for selected configurations.
//
// Expected shape (§4.1.2): MMEM fastest; Hot-Promote nearly matches it;
// interleaving 1.2-1.5x slower (worse with more CXL); MMEM-SSD-x slowest at
// ~1.8x (software path + SSD misses).
//
// The full 7-configuration x 4-workload grid runs once through the parallel
// SweepRunner (--jobs N / CXL_JOBS, default hardware_concurrency); every
// table below reads from that single grid. Results are bit-identical for any
// thread count; the sweep timing summary goes to stderr so stdout stays
// byte-comparable across runs.
#include <algorithm>
#include <iostream>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/telemetry/anomaly.h"
#include "src/telemetry/slo.h"
#include "src/util/units.h"

namespace {

using namespace cxl;

constexpr uint64_t kDatasetBytes = 32 * kGiB;  // 1/16-scale 512 GB shape.

core::KeyDbExperimentOptions Options() {
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = kDatasetBytes;
  opt.total_ops = 220'000;
  opt.warmup_ops = 60'000;
  return opt;
}

struct Cell {
  core::CapacityConfig config;
  workload::YcsbWorkload workload;
};

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::Context::FromArgs(
      &argc, argv, {.jobs = true, .faults = true, .fault_tuning = true, .tiering = true});
  auto& bench_telemetry = ctx.telemetry();
  const int jobs = ctx.jobs();
  const auto workloads = {workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
                          workload::YcsbWorkload::kC, workload::YcsbWorkload::kD};
  const auto configs = core::AllCapacityConfigs();

  std::vector<Cell> cells;
  std::vector<std::string> labels;
  for (core::CapacityConfig config : configs) {
    for (workload::YcsbWorkload w : workloads) {
      cells.push_back(Cell{config, w});
      labels.push_back(core::ConfigLabel(config) + "/" + workload::YcsbName(w));
    }
  }

  runner::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.cell_labels = labels;
  runner::SweepStats stats;
  // Each sweep cell writes its own registry; they merge in cell-index order
  // below, so the telemetry output is identical for any --jobs value.
  std::vector<telemetry::MetricRegistry> cell_sinks(bench_telemetry.enabled() ? cells.size() : 0);
  for (auto& sink : cell_sinks) {
    bench_telemetry.ConfigureSink(&sink);  // --events-ring flight recorder.
  }
  const auto grid = runner::RunSweep(
      cells,
      [&cells, &cell_sinks, &ctx](const Cell& cell, uint64_t seed) {
        const size_t index = static_cast<size_t>(&cell - cells.data());
        core::KeyDbExperimentOptions opt = Options();
        opt.env = ctx.Env(seed);
        opt.env.fault_seed = runner::CellSeed(ctx.fault_seed(), index);
        if (!cell_sinks.empty()) {
          opt.env.telemetry = &cell_sinks[index];
        }
        return core::RunKeyDbExperiment(cell.config, cell.workload, opt);
      },
      sweep_options, &stats);
  if (!grid.ok()) {
    std::cerr << "FAILED: " << grid.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "[sweep] " << stats.Summary() << "\n";
  bench_telemetry.RecordSweep("fig5", stats);

  // SLO + anomaly pass, per cell and before the merge. Each cell is judged
  // against the MMEM row of the same workload — the paper's all-DRAM bar:
  // epoch mean latency within 1.5x MMEM, epoch throughput above 0.7x MMEM.
  // On a healthy run any violation is structural slowness (MMEM-SSD's
  // software path), surfaced with no fault window; under --faults the
  // violation attributes to the plan's active window at the breach time.
  if (!cell_sinks.empty()) {
    const size_t mmem_ci = static_cast<size_t>(
        std::find(configs.begin(), configs.end(), core::CapacityConfig::kMmem) -
        configs.begin());
    for (size_t i = 0; i < cell_sinks.size(); ++i) {
      const auto& baseline = (*grid)[mmem_ci * workloads.size() + i % workloads.size()].server;
      double base_lat_us = 0.0;
      uint64_t lat_epochs = 0;
      for (const auto& e : baseline.timeline) {
        if (e.mean_latency_us > 0.0) {
          base_lat_us += e.mean_latency_us;
          ++lat_epochs;
        }
      }
      telemetry::SloSpec spec;
      spec.workload = "kv";
      if (lat_epochs > 0) {
        spec.max_latency_us = 1.5 * base_lat_us / lat_epochs;
      }
      spec.min_throughput = 0.7 * baseline.throughput_kops;
      const fault::FaultPlan& plan = ctx.faults();
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
  }
  for (size_t i = 0; i < cell_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(cell_sinks[i], labels[i] + "/");
  }

  // Cell (config index ci, workload index wi) lives at grid slot ci * 4 + wi.
  const auto cell = [&](size_t ci, size_t wi) -> const core::KeyDbExperimentResult& {
    return (*grid)[ci * workloads.size() + wi];
  };
  const auto config_index = [&](core::CapacityConfig config) -> size_t {
    return static_cast<size_t>(std::find(configs.begin(), configs.end(), config) -
                               configs.begin());
  };

  PrintSection(std::cout, "Fig 5(a): KeyDB average throughput (kops/s), by configuration");
  Table thr({"config", "YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "slowdown vs MMEM (C)"});
  const double mmem_c_kops =
      cell(config_index(core::CapacityConfig::kMmem), 2).server.throughput_kops;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    thr.Row().Cell(core::ConfigLabel(configs[ci]));
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
      thr.Cell(cell(ci, wi).server.throughput_kops, 1);
    }
    thr.Cell(mmem_c_kops / cell(ci, 2).server.throughput_kops, 2);
  }
  thr.Print(std::cout);

  PrintSection(std::cout, "Fig 5(b): YCSB-A tail latency (us)");
  Table tail({"config", "p50", "p95", "p99", "p999"});
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const auto& h = cell(ci, 0).server.all_latency_us;
    tail.Row().Cell(core::ConfigLabel(configs[ci])).Cell(h.p50(), 0).Cell(h.p95(), 0)
        .Cell(h.p99(), 0).Cell(h.p999(), 0);
  }
  tail.Print(std::cout);

  PrintSection(std::cout, "Fig 5(c): YCSB-C read latency CDF (us at quantile)");
  Table cdf({"config", "q10", "q50", "q90", "q99", "q999"});
  for (core::CapacityConfig config :
       {core::CapacityConfig::kMmem, core::CapacityConfig::kInterleave11,
        core::CapacityConfig::kHotPromote, core::CapacityConfig::kMmemSsd02}) {
    const auto& h = cell(config_index(config), 2).server.read_latency_us;
    cdf.Row().Cell(core::ConfigLabel(config));
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      cdf.Cell(h.ValueAtQuantile(q), 0);
    }
  }
  cdf.Print(std::cout);

  PrintSection(std::cout,
               "Hot-Promote convergence (YCSB-C): per-epoch throughput and migration");
  const auto& hp = cell(config_index(core::CapacityConfig::kHotPromote), 2);
  Table conv({"epoch end ms", "kops in epoch", "migrated MB"});
  const auto& timeline = hp.server.timeline;
  for (size_t i = 0; i < timeline.size(); i += std::max<size_t>(1, timeline.size() / 10)) {
    conv.Row()
        .Cell(timeline[i].end_ms, 0)
        .Cell(timeline[i].kops, 1)
        .Cell(timeline[i].migrated_mb, 1);
  }
  conv.Print(std::cout);
  std::cout << "Reading: the hot head promotes within the first epochs (throughput ramps\n"
               "there) and a bounded trickle of warm-tail churn persists at the rate limit —\n"
               "the cost the per-page stall accounting charges, and why Hot-Promote lands a\n"
               "few percent shy of MMEM instead of matching it exactly.\n";
  if (!ctx.Write("bench_fig5_keydb_ycsb")) {
    return 1;
  }
  return 0;
}
