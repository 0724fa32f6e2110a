#include "src/check/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cxl::check {

namespace {

std::string Format(const char* fmt, double a, double b, const std::string& who) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, who.c_str(), a, b);
  return buf;
}

}  // namespace

std::vector<std::string> SolverInvariantViolations(const mem::BandwidthSolver& solver,
                                                   const mem::BandwidthSolver::Solution& sol,
                                                   double tolerance) {
  using Solver = mem::BandwidthSolver;
  std::vector<std::string> violations;

  const size_t nf = sol.flows.size();
  const size_t nr = sol.resources.size();
  if (nf != solver.flow_count() || nr != solver.resource_count()) {
    violations.push_back("solution shape does not match solver topology");
    return violations;
  }

  // Conservation: per-resource delivered load within the capacity share.
  for (size_t r = 0; r < nr; ++r) {
    const auto& rr = sol.resources[r];
    const double limit = rr.capacity_gbps * Solver::kCapacityShare;
    if (rr.achieved_gbps > limit + tolerance * std::max(1.0, limit)) {
      violations.push_back(
          Format("resource %s: delivered %.6f exceeds capacity share %.6f", rr.achieved_gbps,
                 limit, rr.name));
    }
  }

  // Demand bound: no flow above its offered load.
  for (size_t i = 0; i < nf; ++i) {
    const double offered = solver.flow_offered_gbps(static_cast<Solver::FlowId>(i));
    const double achieved = sol.flows[i].achieved_gbps;
    if (achieved > offered + tolerance * std::max(1.0, offered)) {
      violations.push_back(Format("flow #%s: achieved %.6f exceeds offered %.6f", achieved,
                                  offered, std::to_string(i)));
    }
    if (achieved < -tolerance) {
      violations.push_back(
          Format("flow #%s: negative achieved bandwidth %.6f (offered %.6f)", achieved, offered,
                 std::to_string(i)));
    }
  }

  // Fair share + work conservation: every throttled flow must be pinned by a
  // saturated resource where no competing flow holds a larger allocation.
  for (size_t i = 0; i < nf; ++i) {
    const auto id = static_cast<Solver::FlowId>(i);
    const double offered = solver.flow_offered_gbps(id);
    const double achieved = sol.flows[i].achieved_gbps;
    if (achieved >= offered - tolerance * std::max(1.0, offered)) {
      continue;  // Demand met; nothing to justify.
    }
    bool has_bottleneck = false;
    for (Solver::ResourceId r : solver.flow_resources(id)) {
      const auto& rr = sol.resources[static_cast<size_t>(r)];
      const double limit = rr.capacity_gbps * Solver::kCapacityShare;
      if (rr.achieved_gbps < limit - tolerance * std::max(1.0, limit)) {
        continue;  // Not saturated; cannot be the bottleneck.
      }
      // Largest allocation among flows crossing r.
      double largest = 0.0;
      for (size_t j = 0; j < nf; ++j) {
        const auto& res_j = solver.flow_resources(static_cast<Solver::FlowId>(j));
        if (std::find(res_j.begin(), res_j.end(), r) != res_j.end()) {
          largest = std::max(largest, sol.flows[j].achieved_gbps);
        }
      }
      if (achieved >= largest - tolerance * std::max(1.0, largest)) {
        has_bottleneck = true;
        break;
      }
    }
    if (!has_bottleneck) {
      violations.push_back(Format(
          "flow #%s: throttled to %.6f of %.6f offered without a max-min bottleneck "
          "(no saturated resource where it holds the largest share)",
          achieved, offered, std::to_string(i)));
    }
  }

  return violations;
}

}  // namespace cxl::check
