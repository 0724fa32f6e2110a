// make_report: regenerates the headline paper-vs-measured numbers of
// EXPERIMENTS.md as a markdown table, from live runs. Redirect to a file to
// refresh the documentation's "measured" column:
//
//   ./build/examples/make_report > measured.md
#include <iostream>

#include "src/core/cxl_explorer.h"
#include "src/util/flags.h"

namespace {

using namespace cxl;

void Row(const std::string& what, const std::string& paper, const std::string& measured) {
  std::cout << "| " << what << " | " << paper << " | " << measured << " |\n";
}

void Header(const std::string& title) {
  std::cout << "\n## " << title << "\n\n| quantity | paper | measured |\n|---|---|---|\n";
}

std::string Pct(double x, int precision = 1) { return FormatDouble(100.0 * x, precision) + "%"; }

}  // namespace

int main(int argc, char** argv) {
  cxl::ParseFlags(&argc, argv, {});
  std::cout << "# Measured headline numbers (live run)\n";

  // --- §3 device anchors ----------------------------------------------------
  Header("§3 device anchors");
  const mem::AccessMix read = mem::AccessMix::ReadOnly();
  const mem::AccessMix two_one = mem::AccessMix::Ratio(2, 1);
  const auto& dram = mem::GetProfile(mem::MemoryPath::kLocalDram);
  const auto& cxl = mem::GetProfile(mem::MemoryPath::kLocalCxl);
  const auto& cxl_r = mem::GetProfile(mem::MemoryPath::kRemoteCxl);
  Row("MMEM idle / read peak", "97 ns / 67 GB/s",
      FormatDouble(dram.IdleLatencyNs(read), 1) + " ns / " +
          FormatDouble(dram.PeakBandwidthGBps(read), 1) + " GB/s");
  Row("CXL idle / 2:1 peak", "250.42 ns / 56.7 GB/s",
      FormatDouble(cxl.IdleLatencyNs(read), 2) + " ns / " +
          FormatDouble(cxl.PeakBandwidthGBps(two_one), 1) + " GB/s");
  Row("CXL-r idle / 2:1 peak", "485 ns / 20.4 GB/s",
      FormatDouble(cxl_r.IdleLatencyNs(read), 0) + " ns / " +
          FormatDouble(cxl_r.PeakBandwidthGBps(two_one), 1) + " GB/s");
  Row("CXL/MMEM latency ratio", "2.4-2.6x",
      FormatDouble(cxl.IdleLatencyNs(read) / dram.IdleLatencyNs(read), 2) + "x");
  Row("ASIC PCIe efficiency (derived from flits)", "73.6%",
      Pct(mem::ComputeLinkEfficiency(mem::AsicLinkConfig()).total, 1));
  Row("MMEM knee (1.5x idle)", "75-83%",
      Pct(dram.MakeQueueModel(read).KneeUtilization(1.5), 0));

  // --- Fig. 5 ----------------------------------------------------------------
  Header("Fig. 5 (KeyDB, reduced scale)");
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 16ull << 30;
  opt.total_ops = 150'000;
  opt.warmup_ops = 40'000;
  const auto mmem = core::RunKeyDbExperiment(core::CapacityConfig::kMmem,
                                             workload::YcsbWorkload::kA, opt);
  auto slowdown = [&](core::CapacityConfig c) {
    const auto r = core::RunKeyDbExperiment(c, workload::YcsbWorkload::kA, opt);
    return mmem->server.throughput_kops / r->server.throughput_kops;
  };
  Row("interleave 3:1 / 1:1 / 1:3 slowdown", "1.2-1.5x",
      FormatDouble(slowdown(core::CapacityConfig::kInterleave31), 2) + "x / " +
          FormatDouble(slowdown(core::CapacityConfig::kInterleave11), 2) + "x / " +
          FormatDouble(slowdown(core::CapacityConfig::kInterleave13), 2) + "x");
  Row("KeyDB-FLASH (0.2 spilled) slowdown", "~1.8x",
      FormatDouble(slowdown(core::CapacityConfig::kMmemSsd02), 2) + "x");
  Row("Hot-Promote slowdown", "\"nearly as well\"",
      FormatDouble(slowdown(core::CapacityConfig::kHotPromote), 2) + "x");

  // --- Fig. 7 ----------------------------------------------------------------
  Header("Fig. 7 (Spark TPC-H)");
  const auto& q9 = *apps::spark::FindQuery("Q9");
  const auto& q5 = *apps::spark::FindQuery("Q5");
  const double base9 = apps::spark::SparkCluster(apps::spark::SparkConfig::MmemOnly())
                           .RunQuery(q9)
                           .total_seconds;
  const double base5 = apps::spark::SparkCluster(apps::spark::SparkConfig::MmemOnly())
                           .RunQuery(q5)
                           .total_seconds;
  const double best = apps::spark::SparkCluster(apps::spark::SparkConfig::Interleave(3, 1))
                          .RunQuery(q5)
                          .total_seconds /
                      base5;
  const double worst = apps::spark::SparkCluster(apps::spark::SparkConfig::Interleave(1, 3))
                           .RunQuery(q9)
                           .total_seconds /
                       base9;
  Row("interleave slowdown range", "1.4x-9.8x",
      FormatDouble(best, 1) + "x-" + FormatDouble(worst, 1) + "x");
  const auto hp = apps::spark::SparkCluster(apps::spark::SparkConfig::HotPromote()).RunQuery(q9);
  Row("Hot-Promote vs MMEM (Q9)", ">1.34x",
      FormatDouble(hp.total_seconds / base9, 2) + "x (" +
          FormatDouble(hp.migrated_bytes / 1e9, 0) + " GB migrated)");

  // --- Fig. 8 ----------------------------------------------------------------
  Header("Fig. 8 / §4.3");
  core::KeyDbExperimentOptions vm_opt;
  vm_opt.dataset_bytes = 12ull << 30;
  vm_opt.total_ops = 150'000;
  vm_opt.warmup_ops = 40'000;
  const auto vm = core::RunVmCxlOnlyExperiment(vm_opt);
  Row("CXL-only throughput penalty", "~12.5%", Pct(vm->throughput_penalty));
  cost::VmEconomics econ(cost::VmEconomicsParams{4.0, 3.0, 0.20, vm->throughput_penalty});
  Row("revenue improvement", "26.77% (20/75)", Pct(econ.RevenueImprovement(), 2));

  // --- Fig. 10 ---------------------------------------------------------------
  Header("Fig. 10 (LLM inference)");
  apps::llm::LlmInferenceSim sim;
  const double g60 = sim.Solve(apps::llm::LlmPlacement::Interleave(3, 1), 60)
                         .serving_rate_tokens_s /
                         sim.Solve(apps::llm::LlmPlacement::MmemOnly(), 60)
                             .serving_rate_tokens_s -
                     1.0;
  const double g72 = sim.Solve(apps::llm::LlmPlacement::Interleave(1, 3), 72)
                         .serving_rate_tokens_s /
                         sim.Solve(apps::llm::LlmPlacement::MmemOnly(), 72)
                             .serving_rate_tokens_s -
                     1.0;
  Row("3:1 vs MMEM at 60 threads", "+95%", "+" + Pct(g60));
  Row("1:3 vs MMEM at 72 threads", "~+14%", "+" + Pct(g72));
  Row("single-backend plateau", "24.2 GB/s @ 24 thr",
      FormatDouble(sim.SingleBackendBandwidthGBps(24), 1) + " GB/s");
  Row("KV-cache bandwidth floor/plateau", "12 / ~21 GB/s",
      FormatDouble(sim.KvCacheBandwidthGBps(0.0), 1) + " / " +
          FormatDouble(sim.KvCacheBandwidthGBps(64e9), 1) + " GB/s");

  // --- §6 --------------------------------------------------------------------
  Header("§6 cost model");
  cost::AbstractCostModel model(cost::CostModelParams{10.0, 8.0, 2.0, 1.1});
  Row("N_cxl/N_baseline", "67.29%", Pct(model.ServerRatio(), 2));
  Row("TCO saving", "25.98%", Pct(model.TcoSaving(), 2));
  return 0;
}
