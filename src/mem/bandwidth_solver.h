// Multi-flow bandwidth contention solver.
//
// Applications offer concurrent access streams ("flows") to shared memory
// resources (a NUMA node's DDR channels, a CXL expander's PCIe link + ASIC
// controller, a UPI direction, an SSD). The solver computes, at steady
// state, how much bandwidth each flow actually achieves and what loaded
// latency it observes — the mechanism behind every end-to-end result in the
// paper: DDR-channel bandwidth contention (§3.4), interleaving wins for
// LLM inference (§5), and spill-to-SSD collapse (§4).
//
// Model: each flow crosses an ordered set of capacitated resources. Resource
// capacity is mix-dependent (taken from the resource's PathProfile at the
// demand-weighted read fraction). The allocator is *max-min fair*
// water-filling: every flow's rate rises in lock-step until it either meets
// its offered load or saturates a resource on its path; capacity freed when
// a flow freezes at one resource is redistributed among the flows still
// growing at the others. An outer fixed point re-blends each resource's
// mix-dependent capacity at the resulting allocation.
//
// A flow's loaded latency follows its path's queue model evaluated at the
// utilization of its most-congested resource.
#ifndef CXL_EXPLORER_SRC_MEM_BANDWIDTH_SOLVER_H_
#define CXL_EXPLORER_SRC_MEM_BANDWIDTH_SOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/access.h"
#include "src/mem/profiles.h"
#include "src/util/arena.h"

namespace cxl::mem {

class BandwidthSolver {
 public:
  using ResourceId = int;
  using FlowId = int;

  // Registers a capacitated resource whose capacity law is `capacity_profile`
  // (not owned; must outlive the solver). Returns its id.
  ResourceId AddResource(std::string name, const PathProfile* capacity_profile);

  // Registers a flow offering `offered_gbps` of `mix` across `resources`.
  // `latency_profile` supplies the end-to-end queue model (typically the
  // path profile of the flow's distance class).
  FlowId AddFlow(const PathProfile* latency_profile, const AccessMix& mix, double offered_gbps,
                 std::vector<ResourceId> resources,
                 AccessPattern pattern = AccessPattern::kSequential);

  struct FlowResult {
    double achieved_gbps = 0.0;
    double latency_ns = 0.0;
    // Utilization of the flow's most-congested resource.
    double bottleneck_utilization = 0.0;
  };
  struct ResourceResult {
    std::string name;
    double demand_gbps = 0.0;    // Sum of original offered loads.
    double achieved_gbps = 0.0;  // Sum of delivered loads.
    double capacity_gbps = 0.0;  // Mix-dependent capacity at the solution.
    double utilization = 0.0;    // achieved / capacity.
  };
  struct Solution {
    std::vector<FlowResult> flows;
    std::vector<ResourceResult> resources;
    // Fixed-point rounds until the capacity blend converged. A workload with
    // no over-subscribed resource converges in exactly one round.
    int iterations = 0;
  };

  // Runs the allocation. The solver can be re-solved after adding more
  // flows; ClearFlows() resets flows but keeps resources.
  //
  // Warm-start cache: the solver memoizes its last (inputs, Solution) pair.
  // A re-solve whose inputs match the cached ones — same resources, flows
  // with identical profiles/mixes/patterns/paths, and equal offered loads —
  // returns the cached Solution without re-running the fixed point, so the
  // returned Solution is exactly what a cold solve would produce
  // (bit-identical by construction). Any structural change — a new resource
  // or flow, a different path set — misses the cache and solves cold.
  // Hits/misses are observable via solve_count()/cache_hits().
  Solution Solve() const;

  // Removes all flows (resources are kept so topologies can be reused).
  void ClearFlows();

  // Warm-start evidence: total Solve() calls and how many were served from
  // the cache without re-running the allocation.
  uint64_t solve_count() const { return solve_calls_; }
  uint64_t cache_hits() const { return cache_hits_; }

  size_t flow_count() const { return flows_.size(); }
  size_t resource_count() const { return resources_.size(); }

  // Read-only flow topology, for invariant checkers (src/check) and tests.
  double flow_offered_gbps(FlowId id) const { return flows_[static_cast<size_t>(id)].offered_gbps; }
  const std::vector<ResourceId>& flow_resources(FlowId id) const {
    return flows_[static_cast<size_t>(id)].resources;
  }
  const std::string& resource_name(ResourceId id) const {
    return resources_[static_cast<size_t>(id)].name;
  }

  // Fraction of nominal capacity the solver hands out before queueing makes
  // further load counterproductive. Utilization is computed against the full
  // capacity, so values near the queue-model knee are reachable.
  static constexpr double kCapacityShare = 0.98;

 private:
  struct Resource {
    std::string name;
    const PathProfile* profile;
  };
  struct Flow {
    const PathProfile* profile;
    AccessMix mix;
    AccessPattern pattern;
    double offered_gbps;
    std::vector<ResourceId> resources;
  };

  // Mix-blended capacity of resource `r` when each flow runs at
  // `throughput[i]` (flows at zero weight fall back to the read-only peak).
  double BlendedCapacity(size_t r, const double* throughput) const;

  // Water-filling pass at fixed capacities: progressive filling with demand
  // caps. Writes the per-flow allocation into `alloc` (length flow_count).
  void WaterFill(const double* capacity, double* alloc) const;

  Solution SolveMaxMin() const;
  // Fills flow latencies and resource aggregates.
  void FinishSolution(const double* throughput, const double* capacity, Solution* sol) const;

  // True when the current resources/flows match the cached inputs in
  // everything except offered loads.
  bool CacheStructureMatches() const;

  std::vector<Resource> resources_;
  std::vector<Flow> flows_;

  // Working vectors (basis/capacity/alloc, water-filling headroom and active
  // sets) bump-allocate here; Reset() at each cold solve recycles the
  // blocks, so per-epoch re-solves do no heap allocation.
  mutable Arena scratch_;

  // Last solved inputs + solution (see Solve()). Mutable: memoization is
  // invisible to callers of the const Solve().
  struct CacheEntry {
    bool valid = false;
    std::vector<const PathProfile*> resource_profiles;
    std::vector<Flow> flows;
    Solution solution;
  };
  mutable CacheEntry cache_;
  mutable uint64_t solve_calls_ = 0;
  mutable uint64_t cache_hits_ = 0;
};

// Convenience for the single-flow case (microbenchmarks): offered load on
// one path with no cross-traffic.
struct SingleFlowPoint {
  double achieved_gbps;
  double latency_ns;
  double utilization;
};
SingleFlowPoint SolveSingleFlow(const PathProfile& profile, const AccessMix& mix,
                                double offered_gbps,
                                AccessPattern pattern = AccessPattern::kSequential);

}  // namespace cxl::mem

#endif  // CXL_EXPLORER_SRC_MEM_BANDWIDTH_SOLVER_H_
