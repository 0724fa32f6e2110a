// CXL 2.0 memory pooling — the §7.1 "future generations" extension.
//
// CXL 2.0 lets a Type-3 device be partitioned into multiple logical devices
// shared by up to 16 hosts through a CXL switch. This module provides:
//
//  - CxlMemoryPool: slice-granular capacity bookkeeping with per-host
//    leases (acquire / grow / release), the mechanism a pool manager needs;
//  - PooledCxlProfile(): the performance law of pooled (switched) CXL —
//    the local-CXL ASIC curve plus a switch hop (§7.1's latency trade-off);
//  - PoolingEconomics: Monte-Carlo estimate of how much total memory a
//    pooled deployment saves versus per-host peak provisioning (the
//    statistical-multiplexing argument behind disaggregation's cost story).
#ifndef CXL_EXPLORER_SRC_POOL_MEMORY_POOL_H_
#define CXL_EXPLORER_SRC_POOL_MEMORY_POOL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/mem/profiles.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace cxl::pool {

using HostId = int;

struct PoolConfig {
  uint64_t capacity_bytes = kTiB;
  // Allocation granularity (CXL 2.0 partitions are coarse).
  uint64_t slice_bytes = kGiB;
  // CXL 2.0 supports up to 16 hosts behind one switch.
  int max_hosts = 16;
  // Cap on any single host's share of the pool (fairness guard; 1.0 = none).
  double per_host_capacity_fraction = 1.0;
};

// Slice-granular pool with per-host leases.
class CxlMemoryPool {
 public:
  explicit CxlMemoryPool(PoolConfig config);

  // Leases at least `bytes` (rounded up to slices) to `host`. Fails with
  // RESOURCE_EXHAUSTED when the pool (or the host's cap) cannot satisfy it,
  // INVALID_ARGUMENT for an out-of-range host.
  Status Acquire(HostId host, uint64_t bytes);

  // Returns `bytes` (rounded up to whole slices, clamped to the lease).
  Status Release(HostId host, uint64_t bytes);

  uint64_t LeasedBytes(HostId host) const;
  uint64_t FreeBytes() const { return (total_slices_ - used_slices_) * config_.slice_bytes; }
  uint64_t UsedBytes() const { return used_slices_ * config_.slice_bytes; }
  double Utilization() const {
    return total_slices_ == 0 ? 0.0
                              : static_cast<double>(used_slices_) / static_cast<double>(total_slices_);
  }
  int ActiveHosts() const;
  const PoolConfig& config() const { return config_; }

  // Telemetry counters.
  uint64_t acquire_failures() const { return acquire_failures_; }

 private:
  PoolConfig config_;
  uint64_t total_slices_;
  uint64_t used_slices_ = 0;
  std::map<HostId, uint64_t> leased_slices_;
  uint64_t acquire_failures_ = 0;
};

// Performance law of pooled CXL: the local ASIC profile with one switch hop
// added to the idle latency (CXL 2.0 switch ~ tens of ns each way) and the
// device bandwidth shared by its hosts (the solver handles sharing; the
// profile only carries latency).
const mem::PathProfile& PooledCxlProfile();
inline constexpr double kCxlSwitchHopNs = 70.0;

// Statistical-multiplexing economics of pooling.
struct PoolingEconomicsConfig {
  int hosts = 16;
  // Per-host memory demand: mean and coefficient of variation (lognormal-ish
  // via clamped Gaussian draws).
  double mean_demand_gib = 512.0;
  double demand_cv = 0.35;
  // Provisioning percentile (hosts must not run out more often than this).
  double percentile = 0.99;
  int scenarios = 20'000;
  uint64_t seed = 1;
};

struct PoolingEconomicsResult {
  // GiB each host must provision stand-alone (per-host percentile demand).
  double per_host_provision_gib = 0.0;
  // GiB of pooled capacity for the same percentile on the *sum* demand.
  double pooled_provision_gib = 0.0;
  // 1 - pooled / (hosts * per_host): the DRAM the pool saves.
  double capacity_saving = 0.0;
};

// Ceil-rank empirical quantile: reorders `samples` and returns the
// smallest sample v such that at least ceil(q * n) of the n samples are <= v.
// This is the conservative direction the provisioning contract needs — a
// floor-rank index returns a quantile <= the requested one and under-sizes.
double PercentileCeilRank(std::vector<double>& samples, double q);

// Monte-Carlo: draws per-host demands, compares per-host vs pooled
// percentile provisioning.
PoolingEconomicsResult EstimatePoolingEconomics(const PoolingEconomicsConfig& config);

// Time-stepped pool churn simulator: hosts track AR(1)-smoothed demand
// targets and grow/shrink their leases each step. Quantifies the denial
// rate and utilization a given pool size actually delivers (the check
// behind a percentile-based sizing).
struct PoolChurnConfig {
  int hosts = 16;
  double mean_demand_gib = 192.0;
  double demand_cv = 0.5;
  // AR(1) smoothing of each host's demand target (0 = iid per step,
  // 1 = frozen).
  double demand_inertia = 0.6;
  int steps = 5000;
  uint64_t seed = 1;
};

struct PoolChurnResult {
  double mean_utilization = 0.0;
  double peak_utilization = 0.0;
  // Fraction of grow-requests the pool had to deny.
  double denial_rate = 0.0;
  uint64_t grow_requests = 0;
};

PoolChurnResult SimulatePoolChurn(CxlMemoryPool& pool, const PoolChurnConfig& config);

}  // namespace cxl::pool

#endif  // CXL_EXPLORER_SRC_POOL_MEMORY_POOL_H_
