// Rack-scale CXL memory pooling: N hosts sharing M expanders through a
// switch fabric — the dynamic system behind the §7.1 pooling story.
//
// A Rack owns one CxlMemoryPool per expander (slice-granular per-host
// leases) plus the connectivity the fabric topology implies. The topologies
// mirror the system-level expander exploration of the CXL simulators the
// roadmap cites (CXLRAMSim; CXLMemSim's flat/star/mesh comparison):
//
//   - kFlat: one shared switch — every host reaches every expander at one
//     hop. Maximal multiplexing, zero stranding, every access pays the
//     switch latency.
//   - kStar: expanders are dedicated per host group (host h reaches only
//     expander h % M). No sharing across groups, so free capacity in one
//     group is *stranded* while another group starves — the configuration
//     pooling exists to beat.
//   - kMesh: host h's home expander is one hop away; the others are
//     reachable through a second switch stage at an extra 2×hop latency.
//     Sharing survives, nearest-first placement keeps most traffic cheap.
//
// Layering: rack sits on memory_pool (lease bookkeeping) and mem
// (PooledCxlProfile supplies the performance law per expander); the
// scheduler (scheduler.h) drives leases over simulated time and the fleet
// frontend (apps/kv/fleet.h) feeds per-expander traffic through the max-min
// BandwidthSolver.
#ifndef CXL_EXPLORER_SRC_POOL_RACK_H_
#define CXL_EXPLORER_SRC_POOL_RACK_H_

#include <cstdint>
#include <vector>

#include "src/pool/memory_pool.h"
#include "src/util/units.h"

namespace cxl::pool {

enum class RackTopology {
  kFlat,
  kStar,
  kMesh,
};

// Stable short names: "flat", "star", "mesh" (bench flags and tables).
const char* RackTopologyName(RackTopology topology);

struct RackConfig {
  int hosts = 8;
  int expanders = 4;
  RackTopology topology = RackTopology::kFlat;
  // Local DRAM per host; demand beyond it goes to the pool.
  uint64_t host_dram_bytes = 96 * kGiB;
  // Capacity of each expander (the pool totals expanders x this).
  uint64_t expander_capacity_bytes = 96 * kGiB;
  uint64_t slice_bytes = kGiB;
  // Per-expander cap on any single host's share (CXL 2.0 fairness guard).
  double per_host_capacity_fraction = 1.0;
};

class Rack {
 public:
  explicit Rack(const RackConfig& config);

  const RackConfig& config() const { return config_; }
  int hosts() const { return config_.hosts; }
  int expanders() const { return config_.expanders; }

  CxlMemoryPool& expander(int e) { return expanders_[static_cast<size_t>(e)]; }
  const CxlMemoryPool& expander(int e) const { return expanders_[static_cast<size_t>(e)]; }

  // Expanders host `h` can lease from, nearest-first (hops ascending, index
  // ascending within a hop class) — the scheduler's placement order.
  const std::vector<int>& Reachable(int host) const {
    return reachable_[static_cast<size_t>(host)];
  }
  bool Reaches(int host, int e) const { return SwitchHops(host, e) > 0; }
  // Switch hops between host and expander: 1 = through one switch stage,
  // 2 = mesh spill through a second stage, 0 = unreachable.
  int SwitchHops(int host, int e) const {
    return hops_[static_cast<size_t>(host)][static_cast<size_t>(e)];
  }
  // Fewest hops from `host` to any reachable expander (1 for all topologies).
  int MinHops(int host) const;

  // Pooled bytes host `h` holds across all expanders.
  uint64_t HostLeasedBytes(int host) const;

  uint64_t TotalCapacityBytes() const;
  uint64_t TotalUsedBytes() const;
  double Utilization() const;

 private:
  RackConfig config_;
  std::vector<CxlMemoryPool> expanders_;
  std::vector<std::vector<int>> hops_;       // [host][expander]; 0 = unreachable.
  std::vector<std::vector<int>> reachable_;  // [host] -> expander ids, nearest-first.
};

}  // namespace cxl::pool

#endif  // CXL_EXPLORER_SRC_POOL_RACK_H_
