#include "src/topology/platform.h"

#include <cassert>
#include <cmath>
#include <tuple>

namespace cxl::topology {

using mem::AccessMix;
using mem::AccessPattern;
using mem::CxlController;
using mem::GetProfile;
using mem::MemoryPath;
using mem::PathProfile;

Platform Platform::Build(const PlatformOptions& options) {
  Platform p;
  p.options_ = options;
  NodeId next = 0;
  for (int s = 0; s < options.sockets; ++s) {
    if (options.snc4) {
      for (int d = 0; d < 4; ++d) {
        NumaNode n;
        n.id = next++;
        n.socket = s;
        n.kind = NodeKind::kDram;
        n.capacity_bytes = options.dram_per_socket / 4;
        n.bandwidth_scale = 1.0;  // 2 channels: the calibrated base.
        n.name = "dram.s" + std::to_string(s) + ".snc" + std::to_string(d);
        p.nodes_.push_back(n);
      }
    } else {
      NumaNode n;
      n.id = next++;
      n.socket = s;
      n.kind = NodeKind::kDram;
      n.capacity_bytes = options.dram_per_socket;
      n.bandwidth_scale = 4.0;  // 8 channels.
      n.name = "dram.s" + std::to_string(s);
      p.nodes_.push_back(n);
    }
  }
  for (int c = 0; c < options.cxl_cards; ++c) {
    NumaNode n;
    n.id = next++;
    n.socket = 0;  // Both A1000 modules attach to socket 0 (§2.4).
    n.kind = NodeKind::kCxl;
    n.capacity_bytes = options.cxl_card_capacity;
    n.bandwidth_scale = 1.0;
    n.controller = options.cxl_controller;
    n.name = "cxl" + std::to_string(c);
    p.nodes_.push_back(n);
  }
  return p;
}

Platform Platform::CxlServer(bool snc4) {
  PlatformOptions opt;
  opt.snc4 = snc4;
  return Build(opt);
}

std::vector<NodeId> Platform::DramNodes(int socket) const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kDram && (socket < 0 || n.socket == socket)) {
      out.push_back(n.id);
    }
  }
  return out;
}

std::vector<NodeId> Platform::CxlNodes() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kCxl) {
      out.push_back(n.id);
    }
  }
  return out;
}

MemoryPath Platform::PathFor(int cpu_socket, NodeId node_id) const {
  const NumaNode& n = node(node_id);
  const bool local = n.socket == cpu_socket;
  if (n.kind == NodeKind::kDram) {
    return local ? MemoryPath::kLocalDram : MemoryPath::kRemoteDram;
  }
  return local ? MemoryPath::kLocalCxl : MemoryPath::kRemoteCxl;
}

const PathProfile* Platform::ScaledProfileFor(MemoryPath path, double scale) const {
  for (const auto& [p, s, prof] : scaled_profiles_) {
    if (p == path && std::fabs(s - scale) < 1e-12) {
      return prof.get();
    }
  }
  const PathProfile& base = GetProfile(path, options_.cxl_controller);
  auto scaled = std::make_unique<PathProfile>(
      base.WithBandwidthScale(scale, base.name() + "x" + std::to_string(scale)));
  const PathProfile* out = scaled.get();
  scaled_profiles_.emplace_back(path, scale, std::move(scaled));
  return out;
}

const PathProfile& Platform::ProfileFor(int cpu_socket, NodeId node_id) const {
  const NumaNode& n = node(node_id);
  const MemoryPath path = PathFor(cpu_socket, node_id);
  if (n.kind == NodeKind::kCxl) {
    return GetProfile(path, n.controller);
  }
  if (n.bandwidth_scale == 1.0) {
    return GetProfile(path);
  }
  return *ScaledProfileFor(path, n.bandwidth_scale);
}

const PathProfile& Platform::SsdProfile() const {
  if (options_.ssd_count <= 1) {
    return GetProfile(MemoryPath::kSsd);
  }
  return *ScaledProfileFor(MemoryPath::kSsd, static_cast<double>(options_.ssd_count));
}

// ---------------------------------------------------------------------------
// TrafficModel
// ---------------------------------------------------------------------------

TrafficModel::TrafficModel(const Platform& platform) : platform_(platform) {
  node_resource_.resize(platform.nodes().size(), -1);
  rsf_resource_.resize(platform.nodes().size(), -1);
  upi_resource_.resize(static_cast<size_t>(platform.socket_count()), -1);

  for (const auto& n : platform.nodes()) {
    // Capacity law of the node itself: its local-access profile (channel
    // bandwidth for DRAM, PCIe+controller for CXL).
    const PathProfile& cap = platform.ProfileFor(n.socket, n.id);
    node_resource_[static_cast<size_t>(n.id)] = solver_.AddResource(n.name, &cap);
    if (n.kind == NodeKind::kCxl) {
      // Remote Snoop Filter bottleneck: caps *cross-socket* traffic into
      // this device at the Fig. 3(d) level, independent of PCIe headroom.
      rsf_resource_[static_cast<size_t>(n.id)] =
          solver_.AddResource(n.name + ".rsf", &GetProfile(MemoryPath::kRemoteCxl, n.controller));
    }
  }
  // One UPI resource per destination socket. A SPR socket pair has multiple
  // UPI links; aggregate cross-socket capacity is ~2x what a single stream
  // can extract, hence the x2 scale on the remote-DRAM curve.
  for (int s = 0; s < platform.socket_count(); ++s) {
    static const PathProfile upi =
        GetProfile(MemoryPath::kRemoteDram).WithBandwidthScale(2.0, "UPI");
    upi_resource_[static_cast<size_t>(s)] =
        solver_.AddResource("upi.to_s" + std::to_string(s), &upi);
  }
  ssd_resource_ = solver_.AddResource("ssd", &platform.SsdProfile());
}

TrafficModel::FlowId TrafficModel::AddMemoryTraffic(int cpu_socket, NodeId node,
                                                    const AccessMix& mix, double gbps,
                                                    AccessPattern pattern) {
  const MemoryPath path = platform_.PathFor(cpu_socket, node);
  const PathProfile& latency_profile = platform_.ProfileFor(cpu_socket, node);
  std::vector<mem::BandwidthSolver::ResourceId> resources;
  resources.push_back(node_resource_[static_cast<size_t>(node)]);
  const int dest_socket = platform_.node(node).socket;
  if (dest_socket != cpu_socket) {
    resources.push_back(upi_resource_[static_cast<size_t>(dest_socket)]);
    if (path == MemoryPath::kRemoteCxl) {
      resources.push_back(rsf_resource_[static_cast<size_t>(node)]);
    }
  }
  const FlowId id = solver_.AddFlow(&latency_profile, mix, gbps, std::move(resources), pattern);
  flow_keys_.push_back(FlowKey{cpu_socket, node});
  return id;
}

TrafficModel::FlowId TrafficModel::AddSsdTraffic(const AccessMix& mix, double gbps) {
  const FlowId id =
      solver_.AddFlow(&platform_.SsdProfile(), mix, gbps, {ssd_resource_});
  flow_keys_.push_back(FlowKey{0, -1});
  return id;
}

TrafficModel::Solution TrafficModel::Solve() const {
  const mem::BandwidthSolver::Solution raw = solver_.Solve();
  Solution out;
  out.solver_iterations = raw.iterations;
  out.flows.reserve(raw.flows.size());
  for (const auto& f : raw.flows) {
    out.flows.push_back(FlowStats{f.achieved_gbps, f.latency_ns, f.bottleneck_utilization});
  }
  out.nodes.resize(platform_.nodes().size());
  for (const auto& n : platform_.nodes()) {
    const auto& rr = raw.resources[static_cast<size_t>(node_resource_[static_cast<size_t>(n.id)])];
    out.nodes[static_cast<size_t>(n.id)] =
        NodeStats{rr.achieved_gbps, rr.capacity_gbps, rr.utilization};
  }
  out.upi.resize(upi_resource_.size());
  for (size_t s = 0; s < upi_resource_.size(); ++s) {
    const auto& rr = raw.resources[static_cast<size_t>(upi_resource_[s])];
    out.upi[s] = NodeStats{rr.achieved_gbps, rr.capacity_gbps, rr.utilization};
  }
  const auto& ssd_rr = raw.resources[static_cast<size_t>(ssd_resource_)];
  out.ssd = NodeStats{ssd_rr.achieved_gbps, ssd_rr.capacity_gbps, ssd_rr.utilization};
  return out;
}

void TrafficModel::ClearTraffic() {
  solver_.ClearFlows();
  flow_keys_.clear();
}

}  // namespace cxl::topology
