// Calibration gate: sweeps every memory-path profile, queue model, CXL link
// efficiency stack, end-to-end TrafficModel path and the bandwidth solver's
// fairness contract through the paper-anchored tolerance bands in src/check.
//
// Prints a pass/fail table (band, paper reference, tolerance, measured) and
// exits non-zero if any band is violated, so the calibration_gate ctest
// fails loudly when a refactor nudges the model off the paper's
// measurements.
//
//   ./bench_calibration            table + summary, exit 1 on any failure
//   ./bench_calibration --fails    print only violated bands
#include <iostream>

#include "src/bench/context.h"
#include "src/check/calibration.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  bool fails_only = false;
  auto ctx = cxl::bench::Context::FromArgs(
      &argc, argv, {},
      {{"--fails", "",
        [&fails_only](const std::string&) {
          fails_only = true;
          return cxl::Status::Ok();
        },
        "print only violated bands"}});

  cxl::PrintSection(std::cout, "Calibration gate — paper-anchored tolerance bands");
  const cxl::check::CalibrationReport report = cxl::check::RunAllCalibrationChecks();

  int failed = 0;
  if (fails_only) {
    cxl::check::CalibrationReport filtered;
    for (const auto& r : report.results()) {
      if (!r.pass) {
        filtered.Check(r.band, r.measured);
      }
    }
    if (filtered.results().empty()) {
      std::cout << "all " << report.results().size() << " bands in tolerance\n";
    } else {
      failed = filtered.PrintTable(std::cout);
    }
  } else {
    failed = report.PrintTable(std::cout);
  }
  return ctx.Write("bench_calibration") && failed == 0 ? 0 : 1;
}
