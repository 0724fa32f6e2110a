// Bandwidth-aware placement planning — the paper's §3.4 recommendation as
// executable policy.
//
// "Allocators and kernel-level page placement policies should consider the
//  available bandwidth in MMEM. Even if a substantial portion of memory
//  bandwidth in MMEM remains unused, e.g., 30%, offloading a portion of the
//  workload, e.g., 20%, to CXL memory can lead to overall performance
//  improvements. Our recommendation is to regard CXL memory as a valuable
//  resource for load balancing, even when local DRAM bandwidth is not fully
//  utilized."
//
// Given an aggregate traffic demand and mix, the planner scores every
// DRAM:CXL split using the calibrated loaded-latency laws (CXL accesses pay
// an intrinsic efficiency factor; queueing degrades both pools) and
// recommends the best split, snapped to a small N:M interleave ratio the
// kernel patch can express.
#ifndef CXL_EXPLORER_SRC_OS_BANDWIDTH_AWARE_H_
#define CXL_EXPLORER_SRC_OS_BANDWIDTH_AWARE_H_

#include <vector>

#include "src/mem/access.h"
#include "src/topology/platform.h"

namespace cxl::os {

// The workload, as the planner sees it.
struct PlacementObjective {
  // Aggregate memory traffic the application offers (GB/s).
  double demand_gbps = 10.0;
  mem::AccessMix mix = mem::AccessMix::ReadOnly();
  // Relative per-access efficiency of CXL-served traffic at idle
  // (captures the 2.4-2.6x latency gap as seen by a pipelined application;
  // 1.0 = latency-insensitive streaming).
  double cxl_intrinsic_efficiency = 0.87;
  // How strongly queueing latency degrades application progress
  // (0 = pure-bandwidth workload, ~0.5 = typical, 1+ = latency-bound).
  double latency_sensitivity = 0.5;
};

class BandwidthAwarePlanner {
 public:
  // Plans placement for traffic from `cpu_socket` across that socket's
  // DRAM and the platform's (local) CXL nodes. `dram_nodes` restricts the
  // DRAM pool (e.g. to the one SNC domain a workload is pinned to); empty
  // means every DRAM node on the socket.
  explicit BandwidthAwarePlanner(const topology::Platform& platform, int cpu_socket = 0,
                                 std::vector<topology::NodeId> dram_nodes = {});

  struct Plan {
    double mmem_share = 1.0;       // Fraction of traffic/pages kept on DRAM.
    int top_weight = 1;            // Snapped N:M interleave ratio.
    int low_weight = 0;            // low_weight == 0 means "MMEM only".
    double score = 0.0;            // Effective throughput (GB/s equivalent).
    double mmem_only_score = 0.0;  // Score of keeping everything on DRAM.
    double gain = 0.0;             // score / mmem_only_score - 1.
  };

  // Effective-throughput score of placing `mmem_share` of the demand on
  // DRAM and the rest on CXL.
  double Score(double mmem_share, const PlacementObjective& objective) const;

  // Searches shares in [0, 1] and snaps to the best expressible N:M ratio.
  Plan Recommend(const PlacementObjective& objective) const;

 private:
  const topology::Platform& platform_;
  int cpu_socket_;
  std::vector<topology::NodeId> dram_nodes_;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_BANDWIDTH_AWARE_H_
