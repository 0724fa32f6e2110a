// Capacity planner: a what-if tool built on the Abstract Cost Model (§6)
// and the VM economics model (§4.3).
//
// Usage:
//   ./build/examples/capacity_planner [Rd Rc C Rt]
//
// Given the three microbenchmark ratios (throughput with the working set in
// MMEM / CXL / SSD) and the relative cost of a CXL-equipped server, prints
// how many servers a CXL deployment needs, the TCO saving, the break-even
// server cost, and the elastic-compute revenue picture.
#include <iostream>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"

int main(int argc, char** argv) {
  using namespace cxl;

  auto ctx = bench::Context::FromArgs(&argc, argv, {.jobs = true}, {}, "[Rd Rc C Rt]");

  cost::CostModelParams params;  // Defaults: the Table 3 worked example.
  if (argc != 1 && argc != 5) {
    std::string got = argv[1];
    for (int i = 2; i < argc; ++i) {
      got += std::string(" ") + argv[i];
    }
    ctx.Fail("want all four of Rd Rc C Rt or none, got '" + got + "'");
  }
  double* const fields[] = {&params.r_d, &params.r_c, &params.c, &params.r_t};
  for (int i = 1; i < argc; ++i) {
    if (!ParseNumber(argv[i], fields[i - 1])) {
      ctx.Fail("bad number '" + std::string(argv[i]) + "'");
    }
  }

  cost::AbstractCostModel model(params);
  if (const Status s = model.Validate(); !s.ok()) {
    std::cerr << "invalid parameters: " << s.ToString() << "\n";
    return 2;
  }

  PrintSection(std::cout, "Inputs");
  Table in({"parameter", "value", "meaning"});
  in.Row().Cell("R_d").Cell(params.r_d, 2).Cell("throughput, working set in MMEM (vs SSD=1)");
  in.Row().Cell("R_c").Cell(params.r_c, 2).Cell("throughput, working set in CXL (vs SSD=1)");
  in.Row().Cell("C").Cell(params.c, 2).Cell("MMEM:CXL capacity ratio per CXL server");
  in.Row().Cell("R_t").Cell(params.r_t, 2).Cell("relative TCO of a CXL server");
  in.Print(std::cout);

  PrintSection(std::cout, "Plan");
  Table out({"quantity", "value"});
  out.Row().Cell("servers needed vs baseline %").Cell(100.0 * model.ServerRatio(), 2);
  out.Row().Cell("server reduction %").Cell(100.0 * (1.0 - model.ServerRatio()), 2);
  out.Row().Cell("TCO saving %").Cell(100.0 * model.TcoSaving(), 2);
  out.Row().Cell("break-even R_t").Cell(1.0 / model.ServerRatio(), 3);
  out.Print(std::cout);

  PrintSection(std::cout, "Cluster example: 100-server baseline, W = 2x cluster DRAM");
  // Concrete execution-time check at D = 1 unit of MMEM per server.
  const double n_baseline = 100.0;
  const double working_set = 200.0;
  const double n_cxl = model.ServerRatio() * n_baseline;
  Table cluster({"deployment", "servers", "relative execution time"});
  cluster.Row().Cell("baseline").Cell(n_baseline, 0)
      .Cell(model.BaselineTime(working_set, n_baseline, 1.0), 2);
  cluster.Row().Cell("CXL").Cell(n_cxl, 1).Cell(model.CxlTime(working_set, n_cxl, 1.0), 2);
  cluster.Print(std::cout);

  PrintSection(std::cout, "Fixed CXL infrastructure sensitivity (§6 extension)");
  Table fx({"fixed adder (frac of baseline TCO)", "TCO saving %"});
  // Analytic cells are cheap; the sweep is here as the grid idiom — swap in
  // a denser adder range and it parallelizes for free.
  const std::vector<double> adders = {0.0, 0.05, 0.10, 0.20};
  const auto savings = runner::RunSweep(
      adders,
      [&params](const double& adder, uint64_t /*seed*/) -> StatusOr<double> {
        cost::ExtendedCostModel ext(cost::ExtendedCostParams{params, adder});
        return ext.TcoSaving();
      },
      ctx.Sweep());
  if (!savings.ok()) {
    std::cerr << "sensitivity sweep failed: " << savings.status().ToString() << "\n";
    return 2;
  }
  for (size_t i = 0; i < adders.size(); ++i) {
    fx.Row().Cell(adders[i], 2).Cell(100.0 * (*savings)[i], 2);
  }
  fx.Print(std::cout);

  PrintSection(std::cout, "Elastic-compute view (1:3 server, 20% CXL-instance discount)");
  cost::VmEconomics econ(cost::VmEconomicsParams{});
  std::cout << "stranded vCPUs: " << FormatDouble(100.0 * econ.StrandedVcpuFraction(), 1)
            << "%, revenue improvement with CXL: "
            << FormatDouble(100.0 * econ.RevenueImprovement(), 2) << "%\n";
  return ctx.Write("capacity_planner") ? 0 : 1;
}
