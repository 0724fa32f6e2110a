// cxl_report CLI — see tools/report/report.h for what the report contains.
//
// Usage:
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
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "tools/report/report.h"

namespace {

constexpr char kUsage[] =
    "usage: cxl_report --events FILE [--metrics FILE] [--bench-json FILE] [--out FILE] "
    "[--check]\n";

// Matches `--flag=VALUE` or `--flag VALUE`; advances *i past a consumed
// separate value. A flag with nothing after it takes the empty value.
bool TakeFlag(const char* flag, int* i, int argc, char** argv, std::string* out) {
  const char* arg = argv[*i];
  const size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) {
    return false;
  }
  if (arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
    return true;
  }
  if (arg[flag_len] == '\0') {
    *out = *i + 1 < argc ? argv[++*i] : "";
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  cxl::report::ReportOptions options;
  std::string out_path;
  const struct {
    const char* flag;
    std::string* value;
  } value_flags[] = {{"--events", &options.events_path},
                     {"--metrics", &options.metrics_path},
                     {"--bench-json", &options.bench_json_path},
                     {"--out", &out_path}};
  for (int i = 1; i < argc; ++i) {
    bool matched = false;
    for (const auto& f : value_flags) {
      if (TakeFlag(f.flag, &i, argc, argv, f.value)) {
        if (f.value->empty()) {
          // A dropped value would silently skip what the flag asks for.
          std::cerr << "cxl_report: " << f.flag << " needs a value\n" << kUsage;
          return 2;
        }
        matched = true;
        break;
      }
    }
    if (matched) {
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      options.check = true;
      continue;
    }
    std::cerr << "cxl_report: unknown argument '" << argv[i] << "'\n" << kUsage;
    return 2;
  }
  if (options.events_path.empty()) {
    std::cerr << "cxl_report: --events FILE is required\n";
    return 2;
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
