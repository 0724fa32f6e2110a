#include "src/runner/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/util/flags.h"

namespace cxl::runner {

int ParsePositiveInt(const char* text) {
  int value = 0;
  if (text == nullptr || !ParseNumber(text, &value) || value <= 0 || value > 1 << 20) {
    return 0;
  }
  return value;
}

int ResolveJobs(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const int from_env = ParsePositiveInt(std::getenv("CXL_JOBS")); from_env > 0) {
    return from_env;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::string SweepStats::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "cells=%zu jobs=%d wall=%.0fms serial-est=%.0fms max-cell=%.0fms speedup=%.1fx",
                cells, jobs, wall_ms, serial_ms, max_cell_ms, Speedup());
  return buf;
}

}  // namespace cxl::runner
