#include "src/pool/memory_pool.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace cxl::pool {

CxlMemoryPool::CxlMemoryPool(PoolConfig config)
    : config_(config), total_slices_(config.capacity_bytes / config.slice_bytes) {}

Status CxlMemoryPool::Acquire(HostId host, uint64_t bytes) {
  if (host < 0 || host >= config_.max_hosts) {
    return Status::InvalidArgument("host id out of range (CXL 2.0: up to 16 hosts)");
  }
  const uint64_t slices = (bytes + config_.slice_bytes - 1) / config_.slice_bytes;
  if (slices > total_slices_ - used_slices_) {
    ++acquire_failures_;
    return Status::ResourceExhausted("pool exhausted");
  }
  const auto host_cap = static_cast<uint64_t>(config_.per_host_capacity_fraction *
                                              static_cast<double>(total_slices_));
  // Read-only lookup: operator[] here would insert a zero-lease entry for a
  // host whose request is about to be denied, and ActiveHosts() would then
  // count hosts that never held a slice (the phantom-lease bug).
  const auto it = leased_slices_.find(host);
  const uint64_t held = it == leased_slices_.end() ? 0 : it->second;
  if (held + slices > host_cap) {
    ++acquire_failures_;
    return Status::ResourceExhausted("per-host capacity cap reached");
  }
  leased_slices_[host] += slices;
  used_slices_ += slices;
  return Status::Ok();
}

Status CxlMemoryPool::Release(HostId host, uint64_t bytes) {
  auto it = leased_slices_.find(host);
  if (it == leased_slices_.end() || it->second == 0) {
    return Status::FailedPrecondition("host holds no lease");
  }
  const uint64_t slices =
      std::min<uint64_t>((bytes + config_.slice_bytes - 1) / config_.slice_bytes, it->second);
  it->second -= slices;
  used_slices_ -= slices;
  if (it->second == 0) {
    leased_slices_.erase(it);
  }
  return Status::Ok();
}

uint64_t CxlMemoryPool::LeasedBytes(HostId host) const {
  auto it = leased_slices_.find(host);
  return it == leased_slices_.end() ? 0 : it->second * config_.slice_bytes;
}

int CxlMemoryPool::ActiveHosts() const { return static_cast<int>(leased_slices_.size()); }

const mem::PathProfile& PooledCxlProfile() {
  // Local ASIC CXL + one switch hop each way on the idle latency. Built once
  // by shifting the calibrated curve.
  static const mem::PathProfile pooled = [] {
    const mem::PathProfile& base = mem::GetProfile(mem::MemoryPath::kLocalCxl);
    // Shift idle latency by re-deriving a profile whose latency law adds the
    // hop; bandwidth law unchanged. WithBandwidthScale(1.0) copies, and the
    // queue model reads idle from the profile, so express the hop by
    // composing at call sites is clumsy — instead rebuild params here.
    mem::PathProfile::Params p;
    p.name = "CXL-pooled";
    p.idle_ns_by_read_fraction = mem::PiecewiseLinear(
        {{0.0, base.IdleLatencyNs(mem::AccessMix::WriteOnly()) + 2 * kCxlSwitchHopNs},
         {1.0, base.IdleLatencyNs(mem::AccessMix::ReadOnly()) + 2 * kCxlSwitchHopNs}});
    p.peak_gbps_by_read_fraction = mem::PiecewiseLinear(
        {{0.0, base.PeakBandwidthGBps(mem::AccessMix::WriteOnly())},
         {0.25, base.PeakBandwidthGBps(mem::AccessMix{0.25, true})},
         {0.5, base.PeakBandwidthGBps(mem::AccessMix{0.5, true})},
         {2.0 / 3.0, base.PeakBandwidthGBps(mem::AccessMix::Ratio(2, 1))},
         {0.75, base.PeakBandwidthGBps(mem::AccessMix{0.75, true})},
         {1.0, base.PeakBandwidthGBps(mem::AccessMix::ReadOnly())}});
    p.queue_scale = 0.12;  // The switch adds a queueing stage.
    p.knee_sharpness_read = 4.5;
    p.knee_sharpness_write = 3.0;
    p.overload_droop = 0.05;
    p.random_bandwidth_factor = 0.99;
    p.random_latency_factor = 1.01;
    return mem::PathProfile(std::move(p));
  }();
  return pooled;
}

double PercentileCeilRank(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto n = samples.size();
  // Ceil-rank: the smallest sample v[k] with at least q*n samples <= v[k].
  // The previous floor-rank index truncated q*(n-1), returning a quantile
  // strictly below the requested one whenever q*n was not integral — sizing
  // against it under-provisions the "must not run out more often than q"
  // contract (e.g. n=150, q=0.99 picked rank 148/150 = 98.67% coverage).
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t idx = rank <= 1.0 ? 0 : std::min(n - 1, static_cast<size_t>(rank) - 1);
  // Only the idx-th smallest is read: select it, no full sort.
  const auto kth = samples.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(samples.begin(), kth, samples.end());
  return *kth;
}

PoolingEconomicsResult EstimatePoolingEconomics(const PoolingEconomicsConfig& config) {
  Rng rng(config.seed);
  const double sigma = config.mean_demand_gib * config.demand_cv;

  std::vector<double> per_host_samples;
  per_host_samples.reserve(static_cast<size_t>(config.scenarios) *
                           static_cast<size_t>(config.hosts));
  std::vector<double> sum_samples;
  sum_samples.reserve(static_cast<size_t>(config.scenarios));

  for (int s = 0; s < config.scenarios; ++s) {
    double sum = 0.0;
    for (int h = 0; h < config.hosts; ++h) {
      const double d = std::max(0.0, rng.NextGaussian(config.mean_demand_gib, sigma));
      per_host_samples.push_back(d);
      sum += d;
    }
    sum_samples.push_back(sum);
  }

  PoolingEconomicsResult result;
  result.per_host_provision_gib = PercentileCeilRank(per_host_samples, config.percentile);
  result.pooled_provision_gib = PercentileCeilRank(sum_samples, config.percentile);
  const double standalone_total = result.per_host_provision_gib * config.hosts;
  result.capacity_saving =
      standalone_total > 0.0 ? 1.0 - result.pooled_provision_gib / standalone_total : 0.0;
  return result;
}

PoolChurnResult SimulatePoolChurn(CxlMemoryPool& pool, const PoolChurnConfig& config) {
  Rng rng(config.seed);
  PoolChurnResult result;
  std::vector<double> demand_gib(static_cast<size_t>(config.hosts), config.mean_demand_gib);
  const double sigma = config.mean_demand_gib * config.demand_cv;
  uint64_t denied = 0;
  double util_sum = 0.0;
  for (int step = 0; step < config.steps; ++step) {
    const auto host = static_cast<HostId>(rng.NextBounded(static_cast<uint64_t>(config.hosts)));
    auto& d = demand_gib[static_cast<size_t>(host)];
    const double shock = std::max(0.0, rng.NextGaussian(config.mean_demand_gib, sigma));
    d = config.demand_inertia * d + (1.0 - config.demand_inertia) * shock;
    const auto target = static_cast<uint64_t>(d * static_cast<double>(1ull << 30));
    const uint64_t held = pool.LeasedBytes(host);
    if (target > held) {
      ++result.grow_requests;
      denied += pool.Acquire(host, target - held).ok() ? 0 : 1;
    } else if (held > target) {
      (void)pool.Release(host, held - target);
    }
    util_sum += pool.Utilization();
    result.peak_utilization = std::max(result.peak_utilization, pool.Utilization());
  }
  result.mean_utilization = config.steps > 0 ? util_sum / config.steps : 0.0;
  result.denial_rate = result.grow_requests > 0
                           ? static_cast<double>(denied) / static_cast<double>(result.grow_requests)
                           : 0.0;
  return result;
}

}  // namespace cxl::pool
