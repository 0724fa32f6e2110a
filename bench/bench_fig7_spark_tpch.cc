// Regenerates Fig. 7: Spark TPC-H execution time (normalized to MMEM-only)
// and the shuffle share of execution, per Table-1-style configuration.
//
// Expected shape (§4.2.2): interleaving is 1.4x-9.8x slower than MMEM-only
// (worse with more CXL share; worst for the shuffle-heaviest query), but
// still much faster than spilling to SSD; Hot-Promote is >34% slower than
// MMEM-only (kernel thrashing on low-locality access); shuffle time
// dominates as spill grows.
//
// The 7-configuration x 4-query grid runs through the parallel SweepRunner
// (--jobs / CXL_JOBS); each cell is one core::RunSparkCell, and the
// MMEM-only row doubles as the normalization baseline.
#include <iostream>
#include <vector>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/telemetry/anomaly.h"
#include "src/util/units.h"

int main(int argc, char** argv) {
  using namespace cxl;
  using apps::spark::QueryProfile;
  using apps::spark::QueryResult;
  using apps::spark::SparkConfig;

  auto ctx = bench::Context::FromArgs(&argc, argv,
                                      {.faults = true, .fault_tuning = true, .tiering = true});
  auto& bench_telemetry = ctx.telemetry();
  const int jobs = ctx.jobs();
  const std::vector<QueryProfile> queries = apps::spark::TpchShuffleHeavyQueries();

  struct ConfigRow {
    std::string label;
    SparkConfig config;
  };
  const std::vector<ConfigRow> configs = {
      {"MMEM (3 servers)", SparkConfig::MmemOnly()},
      {"3:1 (2 servers)", SparkConfig::Interleave(3, 1)},
      {"1:1 (2 servers)", SparkConfig::Interleave(1, 1)},
      {"1:3 (2 servers)", SparkConfig::Interleave(1, 3)},
      {"MMEM-SSD-0.2 (3 srv)", SparkConfig::Spill(0.8)},
      {"MMEM-SSD-0.4 (3 srv)", SparkConfig::Spill(0.6)},
      {"Hot-Promote (2 srv)", SparkConfig::HotPromote()},
  };

  struct Cell {
    size_t config_index;
    size_t query_index;
  };
  std::vector<Cell> cells;
  std::vector<std::string> labels;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      cells.push_back(Cell{ci, qi});
      labels.push_back(configs[ci].label + "/" + queries[qi].name);
    }
  }

  runner::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.cell_labels = labels;
  runner::SweepStats stats;
  // One registry per cell (single-writer under the parallel sweep), merged in
  // cell-index order below so the telemetry output is --jobs-independent.
  std::vector<telemetry::MetricRegistry> cell_sinks(bench_telemetry.enabled() ? cells.size() : 0);
  for (auto& sink : cell_sinks) {
    bench_telemetry.ConfigureSink(&sink);  // --events-ring flight recorder.
  }
  const auto grid = runner::RunSweep(
      cells,
      [&configs, &queries, &cells, &cell_sinks, &ctx](const Cell& cell,
                                                      uint64_t /*seed*/) -> StatusOr<QueryResult> {
        const size_t index = static_cast<size_t>(&cell - cells.data());
        core::SparkCell spark{configs[cell.config_index].config, queries[cell.query_index]};
        spark.cluster.tiering_policy = ctx.tiering_policy();
        core::ExperimentEnv env = ctx.Env();
        env.telemetry = cell_sinks.empty() ? nullptr : &cell_sinks[index];
        // Per-cell injector seed (no injector when --faults was not given).
        env.fault_seed = runner::CellSeed(ctx.fault_seed(), index);
        return core::RunSparkCell(spark, env);
      },
      sweep_options, &stats);
  if (!grid.ok()) {
    std::cerr << "FAILED: " << grid.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "[sweep] " << stats.Summary() << "\n";
  bench_telemetry.RecordSweep("fig7", stats);
  // Anomaly pass per cell before the merge: Hot-Promote's low-locality
  // thrashing (§4.2.3) surfaces here as ping-pong episodes on the cell's
  // promote/demote event stream (see EXPERIMENTS.md for the recipe).
  for (auto& sink : cell_sinks) {
    telemetry::DetectAnomalies(sink);
  }
  for (size_t i = 0; i < cell_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(cell_sinks[i], labels[i] + "/");
  }
  const auto result_at = [&](size_t ci, size_t qi) -> const QueryResult& {
    return (*grid)[ci * queries.size() + qi];
  };

  // Baseline times per query: the MMEM-only row (configs[0]).
  std::vector<double> baseline;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    baseline.push_back(result_at(0, qi).total_seconds);
  }

  PrintSection(std::cout, "Fig 7(a): execution time normalized to MMEM-only");
  Table norm({"config", "Q5", "Q7", "Q8", "Q9"});
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    norm.Row().Cell(configs[ci].label);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      norm.Cell(result_at(ci, qi).total_seconds / baseline[qi], 2);
    }
  }
  norm.Print(std::cout);

  PrintSection(std::cout, "Fig 7(b): share of execution time in shuffle (write/read)");
  Table share({"config", "Q5 w/r %", "Q7 w/r %", "Q8 w/r %", "Q9 w/r %"});
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    share.Row().Cell(configs[ci].label);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryResult& r = result_at(ci, qi);
      share.Cell(FormatDouble(100.0 * r.shuffle_write_seconds / r.total_seconds, 0) + "/" +
                 FormatDouble(100.0 * r.shuffle_read_seconds / r.total_seconds, 0));
    }
  }
  share.Print(std::cout);

  PrintSection(std::cout, "Details: absolute seconds, spill and migration volumes (Q9)");
  Table detail({"config", "total s", "compute s", "shufW s", "shufR s", "spilled GB",
                "migrated GB", "CXL access share"});
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const QueryResult& r = result_at(ci, queries.size() - 1);  // Q9.
    detail.Row()
        .Cell(configs[ci].label)
        .Cell(r.total_seconds, 1)
        .Cell(r.compute_seconds, 1)
        .Cell(r.shuffle_write_seconds, 1)
        .Cell(r.shuffle_read_seconds, 1)
        .Cell(BytesToGBd(r.spilled_bytes), 1)
        .Cell(BytesToGBd(r.migrated_bytes), 1)
        .Cell(r.cxl_access_share, 2);
  }
  detail.Print(std::cout);
  if (!ctx.Write("bench_fig7_spark_tpch")) {
    return 1;
  }
  return 0;
}
