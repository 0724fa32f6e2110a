// NUMA memory placement policies.
//
// Mirrors the Linux mempolicy surface the paper exercises:
//  - kBind / kPreferred:  numactl --membind / --preferred (§4.3 CXL-only runs)
//  - kInterleave:         classic 1:1 round-robin over a node set
//  - kWeightedInterleave: the "N:M interleave policy for tiered memory
//    nodes" patch (§2.3): N pages to top-tier nodes for every M pages to
//    low-tier nodes, e.g. 3:1 sends 75% of pages to DRAM and 25% to CXL.
#ifndef CXL_EXPLORER_SRC_OS_NUMA_POLICY_H_
#define CXL_EXPLORER_SRC_OS_NUMA_POLICY_H_

#include <cstdint>
#include <vector>

#include "src/topology/platform.h"

namespace cxl::os {

enum class PolicyMode {
  kBind,                // Allocate only from the given nodes (fail when full).
  kPreferred,           // Prefer the given nodes; fall back when full.
  kInterleave,          // Round-robin across the given nodes.
  kWeightedInterleave,  // N pages to top_nodes : M pages to low_nodes.
};

class NumaPolicy {
 public:
  // Binds allocations to `nodes` (no fallback).
  static NumaPolicy Bind(std::vector<topology::NodeId> nodes);
  // Prefers `nodes`, falling back to any node with space.
  static NumaPolicy Preferred(std::vector<topology::NodeId> nodes);
  // 1:1 interleave across `nodes`.
  static NumaPolicy Interleave(std::vector<topology::NodeId> nodes);
  // N:M tiered interleave: `top_weight` pages to `top_nodes` (round-robin
  // within), then `low_weight` pages to `low_nodes`, repeating.
  static NumaPolicy WeightedInterleave(std::vector<topology::NodeId> top_nodes,
                                       std::vector<topology::NodeId> low_nodes, int top_weight,
                                       int low_weight);

  PolicyMode mode() const { return mode_; }
  const std::vector<topology::NodeId>& nodes() const { return nodes_; }
  const std::vector<topology::NodeId>& low_nodes() const { return low_nodes_; }
  int top_weight() const { return top_weight_; }
  int low_weight() const { return low_weight_; }

  // Placement of the `index`-th page allocated under this policy (before
  // availability fallback, which PageAllocator applies).
  topology::NodeId NodeForIndex(uint64_t index) const;

  // The policy's placement sequence is periodic; this returns one full
  // period, built by evaluating NodeForIndex, so walking the pattern with a
  // wrapping cursor reproduces NodeForIndex(i) for every i. PageAllocator
  // hoists this out of its per-page loop: a multi-million-page Allocate then
  // pays one table lookup per page instead of an out-of-line call with two
  // hardware divides.
  std::vector<topology::NodeId> PeriodPattern() const;

 private:
  NumaPolicy(PolicyMode mode, std::vector<topology::NodeId> nodes,
             std::vector<topology::NodeId> low_nodes, int top_weight, int low_weight);

  PolicyMode mode_;
  std::vector<topology::NodeId> nodes_;      // Top/primary node set.
  std::vector<topology::NodeId> low_nodes_;  // Low tier (weighted mode only).
  int top_weight_ = 1;
  int low_weight_ = 0;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_NUMA_POLICY_H_
