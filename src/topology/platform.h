// Platform topology: sockets, NUMA nodes (DRAM / CXL), SSDs, and the
// access-path resolution between them. Mirrors the paper's testbed (Fig. 2):
// dual Sapphire Rapids sockets, optionally split into 4 SNC domains each,
// with two A1000 CXL expander cards attached to socket 0 and NVMe SSDs.
#ifndef CXL_EXPLORER_SRC_TOPOLOGY_PLATFORM_H_
#define CXL_EXPLORER_SRC_TOPOLOGY_PLATFORM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/access.h"
#include "src/mem/bandwidth_solver.h"
#include "src/mem/profiles.h"
#include "src/util/status.h"

namespace cxl::topology {

enum class NodeKind {
  kDram,  // CPU-attached DDR5.
  kCxl,   // CPU-less CXL Type-3 expander node.
};

using NodeId = int;

// One NUMA node: CPU-attached DRAM (per SNC domain or per socket) or a
// CPU-less CXL expander.
struct NumaNode {
  NodeId id = -1;
  int socket = 0;
  NodeKind kind = NodeKind::kDram;
  uint64_t capacity_bytes = 0;
  // Number of DDR channel *pairs* backing this node relative to the
  // calibrated 2-channel profile (1 = SNC domain, 4 = full SPR socket).
  double bandwidth_scale = 1.0;
  mem::CxlController controller = mem::CxlController::kAsic;
  std::string name;
};

// Options for building a paper-like server.
struct PlatformOptions {
  int sockets = 2;
  int cores_per_socket = 56;  // SPR.
  // SNC-4 splits each socket into 4 NUMA domains with 2 channels each
  // (§3.1). Raw-performance and bandwidth-bound experiments enable it;
  // capacity-bound experiments disable it.
  bool snc4 = false;
  // DRAM per socket. Paper: 512 GiB/socket (8 x 64 GiB DDR5-4800).
  uint64_t dram_per_socket = 512ull << 30;
  // CXL expander cards, all attached to socket 0 (Fig. 2(a)).
  int cxl_cards = 2;
  uint64_t cxl_card_capacity = 256ull << 30;
  mem::CxlController cxl_controller = mem::CxlController::kAsic;
  // NVMe SSDs (two 1.92 TB drives per server, §2.4).
  int ssd_count = 2;
};

// A server topology plus path resolution and contention-solver wiring.
class Platform {
 public:
  // Builds a server per `options`.
  static Platform Build(const PlatformOptions& options);

  // The paper's CXL experiment server (Fig. 2): dual SPR, 1 TiB DRAM,
  // 2 x 256 GiB A1000 cards on socket 0.
  static Platform CxlServer(bool snc4);

  const std::vector<NumaNode>& nodes() const { return nodes_; }
  const NumaNode& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  int socket_count() const { return options_.sockets; }
  int cores_per_socket() const { return options_.cores_per_socket; }
  const PlatformOptions& options() const { return options_; }

  // All DRAM nodes (optionally restricted to one socket).
  std::vector<NodeId> DramNodes(int socket = -1) const;
  // All CXL nodes.
  std::vector<NodeId> CxlNodes() const;

  // Distance class of an access from a CPU on `cpu_socket` to `node`.
  mem::MemoryPath PathFor(int cpu_socket, NodeId node) const;

  // Latency/bandwidth law for that access path (channel-count scaling
  // applied for multi-domain DRAM nodes).
  const mem::PathProfile& ProfileFor(int cpu_socket, NodeId node) const;

  // SSD path profile (shared by all spill traffic on the server).
  const mem::PathProfile& SsdProfile() const;
  int ssd_count() const { return options_.ssd_count; }

 private:
  Platform() = default;

  // Owned scaled profiles for nodes with bandwidth_scale != 1.
  const mem::PathProfile* ScaledProfileFor(mem::MemoryPath path, double scale) const;

  PlatformOptions options_;
  std::vector<NumaNode> nodes_;
  // Cache of scaled profiles, keyed by (path, scale). Lazily built; pointers
  // stay valid once created.
  mutable std::vector<std::tuple<mem::MemoryPath, double, std::unique_ptr<mem::PathProfile>>>
      scaled_profiles_;
};

// Couples a Platform with a BandwidthSolver: applications register traffic
// between a CPU socket and a NUMA node (or the SSD) and read back achieved
// bandwidth / loaded latency per traffic flow.
//
// Resource wiring per flow:
//   local DRAM    -> [node channels]
//   remote DRAM   -> [node channels, UPI(to-socket)]
//   local CXL     -> [cxl device]
//   remote CXL    -> [cxl device, UPI, RSF(device)]
//   SSD           -> [ssd array]
class TrafficModel {
 public:
  explicit TrafficModel(const Platform& platform);

  using FlowId = mem::BandwidthSolver::FlowId;

  // Offers `gbps` of `mix` from CPUs on `cpu_socket` to `node`.
  FlowId AddMemoryTraffic(int cpu_socket, NodeId node, const mem::AccessMix& mix, double gbps,
                          mem::AccessPattern pattern = mem::AccessPattern::kSequential);

  // Offers `gbps` of `mix` to the server's SSD array.
  FlowId AddSsdTraffic(const mem::AccessMix& mix, double gbps);

  struct FlowStats {
    double achieved_gbps;
    double latency_ns;
    double bottleneck_utilization;
  };
  struct NodeStats {
    double achieved_gbps;
    double capacity_gbps;
    double utilization;
  };
  struct Solution {
    std::vector<FlowStats> flows;                // Indexed by FlowId.
    std::vector<NodeStats> nodes;                // Indexed by NodeId.
    std::vector<NodeStats> upi;                  // Indexed by destination socket.
    NodeStats ssd = {};
    int solver_iterations = 0;  // Capacity fixed-point rounds to converge.
  };
  Solution Solve() const;

  void ClearTraffic();

  // Warm-start cache observability passthrough: total Solve() calls and the
  // subset answered from the memoized solution (telemetry emits a
  // solver_cache_invalidate event when a re-solve was forced).
  uint64_t solver_solve_count() const { return solver_.solve_count(); }
  uint64_t solver_cache_hits() const { return solver_.cache_hits(); }

 private:
  const Platform& platform_;
  mem::BandwidthSolver solver_;
  std::vector<mem::BandwidthSolver::ResourceId> node_resource_;  // By NodeId.
  // UPI resource per destination socket (traffic crossing into that socket).
  std::vector<mem::BandwidthSolver::ResourceId> upi_resource_;
  // Remote-snoop-filter resource per CXL node (remote-socket CXL accesses).
  std::vector<mem::BandwidthSolver::ResourceId> rsf_resource_;  // By NodeId (-1 if N/A).
  mem::BandwidthSolver::ResourceId ssd_resource_ = -1;
  // (cpu_socket, node) per flow for latency-profile lookup, parallel to
  // solver flow ids.
  struct FlowKey {
    int cpu_socket;
    NodeId node;  // -1 for SSD.
  };
  std::vector<FlowKey> flow_keys_;
};

}  // namespace cxl::topology

#endif  // CXL_EXPLORER_SRC_TOPOLOGY_PLATFORM_H_
