#include "src/check/invariants.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

std::vector<std::string> AllocatorInvariantViolations(const os::PageAllocator& alloc) {
  std::vector<std::string> violations;
  const uint64_t n = alloc.page_count();
  const topology::NodeId* node = alloc.node_column();
  const auto page = [](const char* what, uint64_t id) {
    return std::string(what) + " (page " + std::to_string(id) + ")";
  };

  // Occupancy: per-node used counts against the column's tallies.
  const auto& nodes = alloc.platform().nodes();
  std::vector<uint64_t> tally(nodes.size(), 0);
  uint64_t free_slots = 0;
  for (uint64_t id = 0; id < n; ++id) {
    if (node[id] < 0) {
      ++free_slots;
    } else if (static_cast<size_t>(node[id]) < tally.size()) {
      ++tally[static_cast<size_t>(node[id])];
    } else {
      violations.push_back(page("node column names a node the platform lacks", id));
    }
  }
  for (const auto& nd : nodes) {
    const uint64_t used = alloc.UsedPages(nd.id);
    if (used != tally[static_cast<size_t>(nd.id)]) {
      violations.push_back("node " + std::to_string(nd.id) + ": used count " +
                           std::to_string(used) + ", node column holds " +
                           std::to_string(tally[static_cast<size_t>(nd.id)]));
    }
  }

  // Residency bitsets: one word per 64 slots.
  const std::vector<uint64_t>& dram = alloc.dram_bits();
  const std::vector<uint64_t>& cxl = alloc.cxl_bits();
  const size_t words = (n + 63) / 64;
  if (dram.size() != words || cxl.size() != words) {
    violations.push_back("residency bitsets span " + std::to_string(dram.size()) + " / " +
                         std::to_string(cxl.size()) + " words, page slots need " +
                         std::to_string(words));
    return violations;
  }
  // Word by word against the bits the column implies (disjoint, and clear
  // past the last slot); the first wrong page of a word is reported.
  for (size_t w = 0; w < words; ++w) {
    uint64_t want_dram = 0;
    uint64_t want_cxl = 0;
    for (uint64_t b = 0; b < 64 && w * 64 + b < n; ++b) {
      const topology::NodeId nd = node[w * 64 + b];
      if (nd >= 0 && static_cast<size_t>(nd) < tally.size()) {
        (alloc.IsDramNode(nd) ? want_dram : want_cxl) |= uint64_t{1} << b;
      }
    }
    const uint64_t wrong = (dram[w] ^ want_dram) | (cxl[w] ^ want_cxl);
    if (wrong == 0) {
      continue;
    }
    const uint64_t id = w * 64 + static_cast<uint64_t>(std::countr_zero(wrong));
    const uint64_t bit = wrong & (~wrong + 1);
    violations.push_back(page(id >= n                       ? "residency bit set past page_count()"
                              : (dram[w] & cxl[w] & bit) != 0 ? "page is in both residency bitsets"
                              : (want_dram & bit) != 0      ? "DRAM page's residency bits are wrong"
                              : (want_cxl & bit) != 0       ? "non-DRAM page's residency bits are wrong"
                                                            : "free slot has a residency bit set",
                              id));
  }

  // Free stack: exactly the slots with node < 0, each once.
  std::vector<uint8_t> on_stack(n, 0);
  for (const os::PageId id : alloc.free_runs()) {
    if (id >= n) {
      violations.push_back(page("free stack holds an id past page_count()", id));
    } else if (node[id] >= 0) {
      violations.push_back(page("free stack holds an allocated page", id));
    } else if (on_stack[id]++ != 0) {
      violations.push_back(page("free stack holds a slot twice", id));
    }
  }
  if (alloc.free_runs().size() != free_slots) {
    violations.push_back("free stack holds " + std::to_string(alloc.free_runs().size()) +
                         " ids, the node column has " + std::to_string(free_slots) +
                         " free slots");
  }
  return violations;
}

std::vector<std::string> TieringInvariantViolations(const os::TieredMemory& tiering) {
  std::vector<std::string> violations;
  const os::PageAllocator& alloc = tiering.allocator();
  const uint64_t n = alloc.page_count();
  const std::vector<uint64_t>& warm = tiering.warm_set();
  const std::vector<float>& lo = tiering.word_heat_lo();
  const std::vector<float>& hi = tiering.word_heat_hi();
  const std::vector<uint32_t>& decays = tiering.word_decays();
  const size_t words = (n + 63) / 64;
  if (warm.size() != words || lo.size() != words || hi.size() != words ||
      decays.size() != words) {
    violations.push_back("warm set / heat bounds / decay counts span " +
                         std::to_string(warm.size()) + " / " + std::to_string(lo.size()) + " / " +
                         std::to_string(hi.size()) + " / " + std::to_string(decays.size()) +
                         " words, page slots need " + std::to_string(words));
    return violations;
  }
  for (size_t w = 0; w < words; ++w) {
    if (decays[w] > tiering.decays()) {
      violations.push_back("word " + std::to_string(w) + " has had " + std::to_string(decays[w]) +
                           " decays, the daemon made " + std::to_string(tiering.decays()));
    }
  }
  std::vector<float> heat(n);
  for (uint64_t id = 0; id < n; ++id) {
    heat[id] = tiering.Heat(id);
  }
  const auto page = [&](const char* what, uint64_t id) {
    return std::string(what) + " (page " + std::to_string(id) + ", heat " +
           std::to_string(heat[id]) + ", word bounds [" + std::to_string(lo[id / 64]) + ", " +
           std::to_string(hi[id / 64]) + "])";
  };
  for (uint64_t id = 0; id < n; ++id) {
    const bool warm_bit = (warm[id / 64] >> (id % 64) & 1) != 0;
    if (heat[id] > 0.0f && !warm_bit) {
      violations.push_back(page("page with heat > 0 is not in the warm set", id));
    }
    if (!(lo[id / 64] <= heat[id] && heat[id] <= hi[id / 64])) {
      violations.push_back(page("word's heat bounds do not bracket a page's heat", id));
    }
    if (tiering.IsQuarantined(id) && tiering.PromoteStamp(id) > tiering.QuarantineEpoch(id)) {
      violations.push_back(page("quarantined page was promoted after its quarantine", id));
    }
  }
  return violations;
}

}  // namespace cxl::check
