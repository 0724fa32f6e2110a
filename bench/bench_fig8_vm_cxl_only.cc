// Regenerates Fig. 8 + the §4.3.2 revenue analysis: KeyDB (YCSB-C, 100 GB
// working-set shape) bound entirely to MMEM vs entirely to CXL.
//
// Expected shape: CXL-only throughput ~12.5% below MMEM; application-level
// read-latency penalty 9-27% (far below the raw 2.4-2.6x device gap, thanks
// to Redis processing time); selling the formerly-stranded vCPUs at a 20%
// discount recovers ~27% revenue.
#include <iostream>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/util/units.h"

int main(int argc, char** argv) {
  using namespace cxl;

  auto ctx = bench::Context::FromArgs(&argc, argv, {.faults = true, .fault_tuning = true});
  auto& bench_telemetry = ctx.telemetry();
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 12 * kGiB;  // 1/8-scale 100 GB shape.
  opt.total_ops = 220'000;
  opt.warmup_ops = 60'000;
  // The MMEM and CXL placements are independent cells; the experiment runs
  // them concurrently through the SweepRunner when jobs > 1. Env() also
  // carries the telemetry sink (merged under "mmem." / "cxl.") and any
  // --faults plan into the experiment.
  opt.env = ctx.Env();
  const auto res = core::RunVmCxlOnlyExperiment(opt);
  if (!res.ok()) {
    std::cerr << "experiment failed: " << res.status().ToString() << "\n";
    return 1;
  }

  PrintSection(std::cout, "Fig 8(b): KeyDB YCSB-C throughput, MMEM vs CXL-only");
  Table thr({"placement", "kops/s", "relative"});
  thr.Row().Cell("MMEM").Cell(res->mmem.server.throughput_kops, 1).Cell(1.0, 3);
  thr.Row().Cell("CXL").Cell(res->cxl.server.throughput_kops, 1)
      .Cell(res->cxl.server.throughput_kops / res->mmem.server.throughput_kops, 3);
  thr.Print(std::cout);
  std::cout << "throughput penalty: " << FormatDouble(100.0 * res->throughput_penalty, 1)
            << "%  (paper: ~12.5%)\n";

  PrintSection(std::cout, "Fig 8(a): read latency CDF (us at quantile)");
  Table cdf({"quantile", "MMEM us", "CXL us", "penalty %"});
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double m = res->mmem.server.read_latency_us.ValueAtQuantile(q);
    const double c = res->cxl.server.read_latency_us.ValueAtQuantile(q);
    cdf.Row().Cell(q, 2).Cell(m, 1).Cell(c, 1).Cell(100.0 * (c / m - 1.0), 1);
  }
  cdf.Print(std::cout);
  std::cout << "(paper: latency penalty 9-27% across the CDF)\n";

  PrintSection(std::cout, "§4.3.2 revenue analysis (1:3 server, 20% CXL discount)");
  cost::VmEconomics econ(cost::VmEconomicsParams{4.0, 3.0, 0.20, res->throughput_penalty});
  Table rev({"quantity", "value"});
  rev.Row().Cell("stranded vCPU fraction").Cell(econ.StrandedVcpuFraction(), 3);
  rev.Row().Cell("baseline revenue").Cell(econ.BaselineRevenue(), 3);
  rev.Row().Cell("revenue with CXL").Cell(econ.CxlRevenue(), 3);
  rev.Row().Cell("revenue improvement").Cell(econ.RevenueImprovement(), 4);
  rev.Print(std::cout);
  std::cout << "(paper: 25% stranded; ~27% improvement, 20/75)\n";
  if (bench_telemetry.sink() != nullptr) {
    bench_telemetry.registry().GetGauge("fig8.throughput_penalty").Set(res->throughput_penalty);
    bench_telemetry.registry().GetGauge("fig8.revenue_improvement").Set(econ.RevenueImprovement());
  }
  if (!ctx.Write("bench_fig8_vm_cxl_only")) {
    return 1;
  }
  return 0;
}
