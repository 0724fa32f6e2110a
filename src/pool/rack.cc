#include "src/pool/rack.h"

#include <algorithm>

namespace cxl::pool {

const char* RackTopologyName(RackTopology topology) {
  switch (topology) {
    case RackTopology::kFlat:
      return "flat";
    case RackTopology::kStar:
      return "star";
    case RackTopology::kMesh:
      return "mesh";
  }
  return "flat";
}

Rack::Rack(const RackConfig& config) : config_(config) {
  PoolConfig pool_cfg;
  pool_cfg.capacity_bytes = config_.expander_capacity_bytes;
  pool_cfg.slice_bytes = config_.slice_bytes;
  // The pool's host-id range must admit every rack host (CXL 2.0's 16-host
  // bound applies per expander port group; the rack fans hosts across
  // expanders, so size the range to the rack).
  pool_cfg.max_hosts = std::max(16, config_.hosts);
  pool_cfg.per_host_capacity_fraction = config_.per_host_capacity_fraction;
  expanders_.reserve(static_cast<size_t>(config_.expanders));
  for (int e = 0; e < config_.expanders; ++e) {
    expanders_.emplace_back(pool_cfg);
  }

  hops_.assign(static_cast<size_t>(config_.hosts),
               std::vector<int>(static_cast<size_t>(config_.expanders), 0));
  reachable_.assign(static_cast<size_t>(config_.hosts), {});
  for (int h = 0; h < config_.hosts; ++h) {
    const int home = config_.expanders > 0 ? h % config_.expanders : 0;
    for (int e = 0; e < config_.expanders; ++e) {
      switch (config_.topology) {
        case RackTopology::kFlat:
          hops_[static_cast<size_t>(h)][static_cast<size_t>(e)] = 1;
          break;
        case RackTopology::kStar:
          hops_[static_cast<size_t>(h)][static_cast<size_t>(e)] = e == home ? 1 : 0;
          break;
        case RackTopology::kMesh:
          hops_[static_cast<size_t>(h)][static_cast<size_t>(e)] = e == home ? 1 : 2;
          break;
      }
    }
    // Nearest-first, index ascending within a hop class: the home expander
    // (if any) leads, then the rest in id order.
    auto& order = reachable_[static_cast<size_t>(h)];
    for (int hop = 1; hop <= 2; ++hop) {
      for (int e = 0; e < config_.expanders; ++e) {
        if (hops_[static_cast<size_t>(h)][static_cast<size_t>(e)] == hop) {
          order.push_back(e);
        }
      }
    }
  }
}

int Rack::MinHops(int host) const {
  const auto& order = reachable_[static_cast<size_t>(host)];
  return order.empty() ? 0 : SwitchHops(host, order.front());
}

uint64_t Rack::HostLeasedBytes(int host) const {
  uint64_t total = 0;
  for (const CxlMemoryPool& pool : expanders_) {
    total += pool.LeasedBytes(host);
  }
  return total;
}

uint64_t Rack::TotalCapacityBytes() const {
  return static_cast<uint64_t>(config_.expanders) * config_.expander_capacity_bytes;
}

uint64_t Rack::TotalUsedBytes() const {
  uint64_t total = 0;
  for (const CxlMemoryPool& pool : expanders_) {
    total += pool.UsedBytes();
  }
  return total;
}

double Rack::Utilization() const {
  const uint64_t capacity = TotalCapacityBytes();
  return capacity == 0 ? 0.0
                       : static_cast<double>(TotalUsedBytes()) / static_cast<double>(capacity);
}

}  // namespace cxl::pool
