// Quickstart: the 60-second tour of cxl-explorer.
//
//   1. Ask the calibrated device models a microbenchmark question
//      ("what does CXL latency/bandwidth look like?", §3).
//   2. Run one KeyDB YCSB experiment in two placements (MMEM vs 1:1
//      interleave) and compare throughput/tails (§4.1).
//   3. Feed the measured ratios into the Abstract Cost Model (§6).
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "src/core/cxl_explorer.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  cxl::ParseFlags(&argc, argv, {});
  using namespace cxl;

  // --- 1. Microbenchmark the device models ---------------------------------
  std::cout << "== 1. Device characteristics (calibrated to the paper's ASIC) ==\n";
  Table micro({"path", "idle ns", "peak GB/s (read)", "peak GB/s (2:1)"});
  for (auto path : {mem::MemoryPath::kLocalDram, mem::MemoryPath::kRemoteDram,
                    mem::MemoryPath::kLocalCxl, mem::MemoryPath::kRemoteCxl}) {
    const auto& prof = mem::GetProfile(path);
    micro.Row()
        .Cell(mem::PathLabel(path))
        .Cell(prof.IdleLatencyNs(mem::AccessMix::ReadOnly()), 1)
        .Cell(prof.PeakBandwidthGBps(mem::AccessMix::ReadOnly()), 1)
        .Cell(prof.PeakBandwidthGBps(mem::AccessMix::Ratio(2, 1)), 1);
  }
  micro.Print(std::cout);

  // --- 2. KeyDB under two placements ----------------------------------------
  std::cout << "\n== 2. KeyDB YCSB-A: MMEM vs 1:1 MMEM/CXL interleave ==\n";
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 16ull << 30;  // Scaled-down working set for a demo.
  opt.total_ops = 120'000;
  opt.warmup_ops = 30'000;

  const auto mmem = core::RunKeyDbExperiment(core::CapacityConfig::kMmem,
                                             workload::YcsbWorkload::kA, opt);
  const auto inter = core::RunKeyDbExperiment(core::CapacityConfig::kInterleave11,
                                              workload::YcsbWorkload::kA, opt);
  if (!mmem.ok() || !inter.ok()) {
    std::cerr << "experiment failed: "
              << (mmem.ok() ? inter.status().ToString() : mmem.status().ToString()) << "\n";
    return 1;
  }
  Table kv({"config", "kops/s", "p50 us", "p99 us", "DRAM share"});
  for (const auto* r : {&*mmem, &*inter}) {
    kv.Row()
        .Cell(r->config_label)
        .Cell(r->server.throughput_kops, 1)
        .Cell(r->server.all_latency_us.p50(), 1)
        .Cell(r->server.all_latency_us.p99(), 1)
        .Cell(r->server.dram_share, 2);
  }
  kv.Print(std::cout);
  const double slowdown = mmem->server.throughput_kops / inter->server.throughput_kops;
  std::cout << "interleave 1:1 slowdown vs MMEM: " << FormatDouble(slowdown, 2)
            << "x  (paper band: 1.2-1.5x)\n";

  // --- 3. Cost model --------------------------------------------------------
  std::cout << "\n== 3. Abstract Cost Model (Table 3 example) ==\n";
  cost::AbstractCostModel model(cost::CostModelParams{10.0, 8.0, 2.0, 1.1});
  std::cout << "N_cxl/N_baseline = " << FormatDouble(100.0 * model.ServerRatio(), 2)
            << "%  (paper: 67.29%)\n";
  std::cout << "TCO saving       = " << FormatDouble(100.0 * model.TcoSaving(), 2)
            << "%  (paper: 25.98%)\n";
  return 0;
}
