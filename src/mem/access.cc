#include "src/mem/access.h"

#include <cmath>
#include <cstdio>

namespace cxl::mem {

std::string MixLabel(const AccessMix& mix) {
  // Render common ratios exactly; otherwise fall back to a percentage.
  struct Named {
    double rf;
    const char* label;
  };
  static constexpr Named kNamed[] = {
      {1.0, "1:0"},       {0.75, "3:1"}, {2.0 / 3.0, "2:1"}, {0.5, "1:1"},
      {1.0 / 3.0, "1:2"}, {0.25, "1:3"}, {0.0, "0:1"},
  };
  for (const auto& n : kNamed) {
    if (std::fabs(mix.read_fraction - n.rf) < 1e-9) {
      return n.label;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "R%.0f%%", mix.read_fraction * 100.0);
  return buf;
}

std::string PathLabel(MemoryPath path) {
  switch (path) {
    case MemoryPath::kLocalDram:
      return "MMEM";
    case MemoryPath::kRemoteDram:
      return "MMEM-r";
    case MemoryPath::kLocalCxl:
      return "CXL";
    case MemoryPath::kRemoteCxl:
      return "CXL-r";
    case MemoryPath::kSsd:
      return "SSD";
  }
  return "?";
}

}  // namespace cxl::mem
