// Ablations for the design choices DESIGN.md calls out:
//   A1: promotion rate limit — KeyDB (high locality) vs Spark (streaming);
//   A2: fine-grained weighted-interleave ratio sweep (beyond 3:1/1:1/1:3);
//   A3: queue-model knee sharpness — how sensitive end-to-end results are to
//       the loaded-latency law;
//   A4: static vs dynamic hot-page threshold.
//
// Each ablation grid runs through the parallel SweepRunner (--jobs /
// CXL_JOBS). Cells deliberately keep a fixed workload seed (not the derived
// sweep seed): every ablation compares rows against each other, so all rows
// must replay the same op stream.
#include <cmath>
#include <iostream>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/util/units.h"

using namespace cxl;

int main(int argc, char** argv) {
  auto ctx = cxl::bench::Context::FromArgs(&argc, argv, {.jobs = true});
  auto& bench_telemetry = ctx.telemetry();
  runner::SweepOptions sweep_options = ctx.Sweep();
  runner::SweepStats stats;
  // The KeyDB cells of A1, A2 and A4: 8 GiB of 1 KiB records, short runs.
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 8 * kGiB;
  opt.total_ops = 120'000;
  opt.warmup_ops = 30'000;

  // --- A1: rate limit, locality-dependent -----------------------------------
  PrintSection(std::cout,
               "A1: promotion rate limit x workload locality (the §4.1 vs §4.2 tension)");
  Table a1({"rate limit MB/s", "KeyDB kops/s", "KeyDB migrated GB", "Spark Q7 norm time",
            "Spark migrated GB"});
  const auto& q7 = *apps::spark::FindQuery("Q7");
  const double spark_baseline =
      apps::spark::SparkCluster(apps::spark::SparkConfig::MmemOnly()).RunQuery(q7).total_seconds;
  struct A1Row {
    apps::kv::KvServerSim::Result kv;
    apps::spark::QueryResult spark;
  };
  const std::vector<double> limits = {64.0, 1024.0, 3000.0, 16384.0};
  const auto a1_rows = runner::RunSweep(
      limits,
      [&q7, &opt](const double& limit, uint64_t /*seed*/) -> StatusOr<A1Row> {
        core::KvCell cell = core::MakeKvCell(core::CapacityConfig::kHotPromote, opt);
        cell.tiering->promote_rate_limit_mbps = limit;
        auto kv = core::RunKvCell(cell, workload::YcsbWorkload::kB, core::ExperimentEnv{});
        if (!kv.ok()) {
          return kv.status();
        }
        A1Row row;
        row.kv = std::move(kv->server);
        apps::spark::SparkConfig cfg = apps::spark::SparkConfig::HotPromote();
        cfg.promote_rate_limit_mbps = limit;
        row.spark = apps::spark::SparkCluster(cfg).RunQuery(q7);
        return row;
      },
      sweep_options, &stats);
  bench_telemetry.RecordSweep("a1", stats);
  if (!a1_rows.ok()) {
    std::cerr << "A1 failed: " << a1_rows.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < limits.size(); ++i) {
    const A1Row& row = (*a1_rows)[i];
    a1.Row()
        .Cell(limits[i], 0)
        .Cell(row.kv.throughput_kops, 1)
        .Cell(BytesToGBd(row.kv.migrated_bytes), 2)
        .Cell(row.spark.total_seconds / spark_baseline, 2)
        .Cell(BytesToGBd(row.spark.migrated_bytes), 1);
  }
  a1.Print(std::cout);
  std::cout << "Reading: KeyDB saturates its benefit at a tiny budget (hot set is small and\n"
               "stable); Spark burns whatever budget it gets without converging — raising the\n"
               "limit raises churn, not performance. A single system-wide knob cannot serve\n"
               "both (the paper's §4.2.3 caution).\n";

  // --- A2: fine interleave sweep --------------------------------------------
  PrintSection(std::cout, "A2: weighted-interleave ratio sweep (KeyDB YCSB-C)");
  Table a2({"MMEM share %", "kops/s", "p99 us"});
  const auto mmem_res =
      core::RunKeyDbExperiment(core::CapacityConfig::kMmem, workload::YcsbWorkload::kC, opt);
  struct Ratio {
    int top;
    int low;
  };
  const std::vector<Ratio> ratios = {Ratio{7, 1}, Ratio{3, 1}, Ratio{2, 1}, Ratio{1, 1},
                                     Ratio{1, 2}, Ratio{1, 3}, Ratio{1, 7}};
  const auto a2_rows = runner::RunSweep(
      ratios,
      [&opt](const Ratio& r, uint64_t /*seed*/) {
        core::KvCell cell = core::MakeKvCell(core::CapacityConfig::kInterleave11, opt);
        cell.placement = os::NumaPolicy::WeightedInterleave(
            cell.platform.DramNodes(), cell.platform.CxlNodes(), r.top, r.low);
        return core::RunKvCell(cell, workload::YcsbWorkload::kC, core::ExperimentEnv{});
      },
      sweep_options, &stats);
  bench_telemetry.RecordSweep("a2", stats);
  if (!a2_rows.ok()) {
    std::cerr << "A2 failed: " << a2_rows.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < ratios.size(); ++i) {
    a2.Row()
        .Cell(100.0 * ratios[i].top / (ratios[i].top + ratios[i].low), 1)
        .Cell((*a2_rows)[i].server.throughput_kops, 1)
        .Cell((*a2_rows)[i].server.all_latency_us.p99(), 0);
  }
  if (mmem_res.ok()) {
    a2.Row().Cell(100.0, 1).Cell(mmem_res->server.throughput_kops, 1)
        .Cell(mmem_res->server.all_latency_us.p99(), 0);
  }
  a2.Print(std::cout);

  // --- A3: knee sharpness sensitivity ---------------------------------------
  PrintSection(std::cout, "A3: loaded-latency knee sharpness vs LLM saturation behaviour");
  Table a3({"knee sharpness", "knee util (1.5x)", "latency @94% util (ns)",
            "MMEM decode quality @94%"});
  for (double sharp : {3.0, 4.5, 6.0, 8.0}) {
    // Rebuild the local-DRAM latency law with a different sharpness: where
    // the knee lands directly sets how hard the MMEM-only LLM configuration
    // collapses at its 60-thread operating point (u ~ 0.94, §5.2).
    sim::QueueModel model(97.0, 0.25, sharp);
    const double lat94 = model.LatencyAt(0.94);
    a3.Row()
        .Cell(sharp, 1)
        .Cell(model.KneeUtilization(1.5), 2)
        .Cell(lat94, 0)
        .Cell(std::pow(97.0 / lat94, 0.45), 2);
  }
  a3.Print(std::cout);
  std::cout << "Reading: sharper knees keep latency flat longer but collapse harder at the\n"
               "94% operating point; the calibrated value (6.0) pins the knee in the paper's\n"
               "75-83% band and yields the observed ~2x serving-rate gap.\n";

  // --- A5: SNC-4 vs SNC-off for the LLM experiment ---------------------------
  PrintSection(std::cout, "A5: why §5 binds to one SNC-4 domain (vs the whole SNC-off socket)");
  Table a5({"threads", "SNC domain: MMEM tok/s", "SNC domain: 3:1 gain %",
            "full socket: MMEM tok/s", "full socket: 3:1 gain %"});
  struct A5Row {
    double domain_mmem;
    double domain_interleave;
    double socket_mmem;
    double socket_interleave;
  };
  const std::vector<int> thread_counts = {24, 48, 60, 84};
  const auto a5_rows = runner::RunSweep(
      thread_counts,
      [](const int& threads, uint64_t /*seed*/) -> StatusOr<A5Row> {
        // Per-cell sims: Solve() adapts internal state, so sharing one sim
        // across concurrent cells would race.
        apps::llm::LlmServingConfig domain_cfg;
        apps::llm::LlmServingConfig socket_cfg;
        socket_cfg.dram_bandwidth_scale = 4.0;  // 8 channels.
        apps::llm::LlmInferenceSim domain_sim(domain_cfg);
        apps::llm::LlmInferenceSim socket_sim(socket_cfg);
        A5Row row;
        row.domain_mmem = domain_sim.Solve(apps::llm::LlmPlacement::MmemOnly(), threads)
                              .serving_rate_tokens_s;
        row.domain_interleave = domain_sim.Solve(apps::llm::LlmPlacement::Interleave(3, 1), threads)
                                    .serving_rate_tokens_s;
        row.socket_mmem = socket_sim.Solve(apps::llm::LlmPlacement::MmemOnly(), threads)
                              .serving_rate_tokens_s;
        row.socket_interleave = socket_sim.Solve(apps::llm::LlmPlacement::Interleave(3, 1), threads)
                                    .serving_rate_tokens_s;
        return row;
      },
      sweep_options, &stats);
  bench_telemetry.RecordSweep("a5", stats);
  if (!a5_rows.ok()) {
    std::cerr << "A5 failed: " << a5_rows.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    const A5Row& row = (*a5_rows)[i];
    a5.Row()
        .Cell(static_cast<uint64_t>(thread_counts[i]))
        .Cell(row.domain_mmem, 1)
        .Cell(100.0 * (row.domain_interleave / row.domain_mmem - 1.0), 1)
        .Cell(row.socket_mmem, 1)
        .Cell(100.0 * (row.socket_interleave / row.socket_mmem - 1.0), 1);
  }
  a5.Print(std::cout);
  std::cout << "Reading: on the full 268 GB/s socket these thread counts never saturate DRAM\n"
               "and interleaving only costs (negative gain). Binding to one 67 GB/s domain is\n"
               "what lets §5 show bandwidth contention at laptop-scale thread counts; the same\n"
               "crossover would appear socket-wide at ~4x the threads.\n";

  // --- A4: static vs dynamic hot threshold ----------------------------------
  PrintSection(std::cout, "A4: hot-page threshold, static vs dynamic (KeyDB Hot-Promote)");
  Table a4({"threshold mode", "kops/s", "migrated GB"});
  const std::vector<int> modes = {0, 1};
  const auto a4_rows = runner::RunSweep(
      modes,
      [&opt](const int& dynamic, uint64_t /*seed*/) {
        core::KvCell cell = core::MakeKvCell(core::CapacityConfig::kHotPromote, opt);
        cell.tiering->dynamic_threshold = dynamic != 0;
        return core::RunKvCell(cell, workload::YcsbWorkload::kB, core::ExperimentEnv{});
      },
      sweep_options, &stats);
  bench_telemetry.RecordSweep("a4", stats);
  if (!a4_rows.ok()) {
    std::cerr << "A4 failed: " << a4_rows.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < modes.size(); ++i) {
    a4.Row()
        .Cell(modes[i] != 0 ? "dynamic" : "static")
        .Cell((*a4_rows)[i].server.throughput_kops, 1)
        .Cell(BytesToGBd((*a4_rows)[i].server.migrated_bytes), 2);
  }
  a4.Print(std::cout);
  if (!ctx.Write("bench_ablation")) {
    return 1;
  }
  return 0;
}
