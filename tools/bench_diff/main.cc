// bench_diff: wall-clock regression checker over the one-line --bench-json
// summaries the benches write ({"bench", "cells", "jobs", "wall_ms",
// "speedup"}).
//
// Usage (`bench_diff --help` prints the flags):
//   bench_diff BASELINE.json FRESH.json [--max-regress FRACTION]
//
// Compares a freshly measured summary against a committed baseline. The two
// are only comparable at equal --jobs (wall-clock scales with parallelism);
// on a jobs mismatch the tool reports "not comparable" and exits 0 so a CI
// matrix change doesn't masquerade as a perf regression. A regression is
// fresh wall_ms > baseline wall_ms * (1 + max_regress); the default
// max_regress is 0.25 per the perf-smoke contract (CI passes a looser bound
// on shared runners — see .github/workflows/ci.yml).
//
// Exit codes: 0 ok / not comparable, 1 regression, 2 usage or I/O error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/util/flags.h"
#include "tools/report/json_lite.h"

namespace {

bool LoadSummary(const char* path, cxl::report::JsonValue* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::cerr << "bench_diff: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  if (!cxl::report::ParseJson(buffer.str(), out, &error) || !out->is_object()) {
    std::cerr << "bench_diff: " << path << ": " << (error.empty() ? "not an object" : error)
              << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double max_regress = 0.25;
  const cxl::Usage usage = cxl::ParseFlags(
      &argc, argv,
      {{"--max-regress", "FRACTION",
        [&max_regress](const std::string& value) {
          return cxl::ParseNumber(value, &max_regress) && max_regress >= 0.0
                     ? cxl::Status::Ok()
                     : cxl::Status::InvalidArgument("want a non-negative fraction");
        },
        "fail when fresh wall_ms exceeds baseline x (1 + FRACTION) (default 0.25)"}},
      "BASELINE.json FRESH.json");
  if (argc > 3) {
    usage.Fail("unexpected argument '" + std::string(argv[3]) + "'");
  }
  if (argc < 3) {
    usage.Fail("want BASELINE.json and FRESH.json");
  }
  cxl::report::JsonValue baseline;
  cxl::report::JsonValue fresh;
  if (!LoadSummary(argv[1], &baseline) || !LoadSummary(argv[2], &fresh)) {
    return 2;
  }

  const std::string bench = fresh.String("bench", "?");
  // Summaries written before the "jobs" field default to jobs=1, matching
  // the old single-threaded perf-smoke runs.
  const double base_jobs = baseline.Number("jobs", 1.0);
  const double fresh_jobs = fresh.Number("jobs", 1.0);
  const double base_ms = baseline.Number("wall_ms");
  const double fresh_ms = fresh.Number("wall_ms");

  if (base_jobs != fresh_jobs) {
    std::cout << "bench_diff: " << bench << ": not comparable (baseline jobs=" << base_jobs
              << ", fresh jobs=" << fresh_jobs << ") — skipping\n";
    return 0;
  }
  if (base_ms <= 0.0) {
    std::cout << "bench_diff: " << bench << ": baseline has no wall_ms — skipping\n";
    return 0;
  }
  const double ratio = fresh_ms / base_ms;
  const double limit = 1.0 + max_regress;
  std::cout << "bench_diff: " << bench << ": baseline " << base_ms << " ms, fresh " << fresh_ms
            << " ms (x" << ratio << ", limit x" << limit << ", jobs=" << fresh_jobs << ")\n";
  if (ratio > limit) {
    std::cerr << "bench_diff: REGRESSION: " << bench << " is " << ratio
              << "x the committed baseline (limit " << limit << "x)\n";
    return 1;
  }
  std::cout << "bench_diff: OK\n";
  return 0;
}
