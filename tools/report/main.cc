// cxl_report CLI — see tools/report/report.h for what the report contains.
//
// Usage (`cxl_report --help` prints the flags; each value flag takes
// `--flag FILE` or `--flag=FILE`):
//   cxl_report --events FILE [--metrics FILE] [--bench-json FILE]
//              [--out FILE] [--check]
//
// Consumes the outputs a bench wrote via --events-out (required),
// --metrics-out and --bench-json, and emits a markdown diagnosis to stdout
// (or --out FILE). With --check it also verifies the causal-attribution
// contract — every degradation-response event names a fault window that
// actually opened — that event totals reconcile with the counters, and that
// the meta line's event count matches the log.
//
// Exit codes: 0 ok, 1 --check failed, 2 usage or I/O error.
#include <fstream>
#include <iostream>
#include <string>

#include "src/util/flags.h"
#include "tools/report/report.h"

int main(int argc, char** argv) {
  cxl::report::ReportOptions options;
  std::string out_path;
  const cxl::Usage usage = cxl::ParseFlags(
      &argc, argv,
      {{"--events", "FILE", cxl::Store(&options.events_path),
        "the bench's --events-out log (required)"},
       {"--metrics", "FILE", cxl::Store(&options.metrics_path),
        "the bench's --metrics-out JSON: reconcile event totals with its counters"},
       {"--bench-json", "FILE", cxl::Store(&options.bench_json_path),
        "the bench's --bench-json summary, for the run header"},
       {"--out", "FILE", cxl::Store(&out_path), "write the report here, not to stdout"},
       {"--check", "", cxl::Store(&options.check),
        "exit 1 unless causes, totals and the event count check out"}});
  if (options.events_path.empty()) {
    usage.Fail("--events FILE is required");
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cxl_report: cannot open " << out_path << "\n";
      return 2;
    }
    const int code = cxl::report::GenerateReport(options, os, std::cerr);
    os.flush();
    if (!os) {
      std::cerr << "cxl_report: write failed for " << out_path << "\n";
      return 2;
    }
    return code;
  }
  return cxl::report::GenerateReport(options, std::cout, std::cerr);
}
