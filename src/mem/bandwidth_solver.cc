#include "src/mem/bandwidth_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cxl::mem {

namespace {

// Relative convergence tolerance for the outer capacity-blend fixed point
// and the water-filling freeze tests. Far below measurement noise.
constexpr double kRelTol = 1e-9;

// Upper bound on outer capacity-blend rounds. The blend moves only when the
// allocation shifts the demand-weighted read fraction at a resource, which
// damps geometrically; single-digit rounds are typical.
constexpr int kMaxRounds = 40;

bool ApproxEqual(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

BandwidthSolver::ResourceId BandwidthSolver::AddResource(std::string name,
                                                         const PathProfile* capacity_profile) {
  assert(capacity_profile != nullptr);
  resources_.push_back(Resource{std::move(name), capacity_profile});
  return static_cast<ResourceId>(resources_.size()) - 1;
}

BandwidthSolver::FlowId BandwidthSolver::AddFlow(const PathProfile* latency_profile,
                                                 const AccessMix& mix, double offered_gbps,
                                                 std::vector<ResourceId> resources,
                                                 AccessPattern pattern) {
  assert(latency_profile != nullptr);
  assert(offered_gbps >= 0.0);
  for ([[maybe_unused]] ResourceId r : resources) {
    assert(r >= 0 && r < static_cast<ResourceId>(resources_.size()));
  }
  flows_.push_back(Flow{latency_profile, mix, pattern, offered_gbps, std::move(resources)});
  return static_cast<FlowId>(flows_.size()) - 1;
}

void BandwidthSolver::ClearFlows() { flows_.clear(); }

bool BandwidthSolver::CacheStructureMatches() const {
  if (!cache_.valid || cache_.resource_profiles.size() != resources_.size() ||
      cache_.flows.size() != flows_.size()) {
    return false;
  }
  for (size_t r = 0; r < resources_.size(); ++r) {
    if (cache_.resource_profiles[r] != resources_[r].profile) {
      return false;
    }
  }
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& a = flows_[i];
    const Flow& b = cache_.flows[i];
    if (a.profile != b.profile || a.pattern != b.pattern ||
        a.mix.read_fraction != b.mix.read_fraction ||
        a.mix.non_temporal_writes != b.mix.non_temporal_writes || a.resources != b.resources) {
      return false;
    }
  }
  return true;
}

double BandwidthSolver::BlendedCapacity(size_t r, const double* throughput) const {
  double demand = 0.0;
  double read_demand = 0.0;
  bool any_random = false;
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    if (std::find(f.resources.begin(), f.resources.end(), static_cast<ResourceId>(r)) ==
        f.resources.end()) {
      continue;
    }
    demand += throughput[i];
    read_demand += throughput[i] * f.mix.read_fraction;
    any_random = any_random || f.pattern == AccessPattern::kRandom;
  }
  if (demand <= 0.0) {
    return resources_[r].profile->PeakBandwidthGBps(AccessMix::ReadOnly());
  }
  const AccessMix blended{read_demand / demand, true};
  const AccessPattern pattern = any_random ? AccessPattern::kRandom : AccessPattern::kSequential;
  return resources_[r].profile->PeakBandwidthGBps(blended, pattern);
}

void BandwidthSolver::WaterFill(const double* capacity, double* alloc) const {
  const size_t nf = flows_.size();
  const size_t nr = resources_.size();
  std::fill(alloc, alloc + nf, 0.0);

  double* headroom = scratch_.AllocateArray<double>(nr);
  for (size_t r = 0; r < nr; ++r) {
    headroom[r] = std::max(0.0, capacity[r] * kCapacityShare);
  }

  char* active = scratch_.AllocateArray<char>(nf);
  std::fill(active, active + nf, 1);
  size_t n_active = 0;
  for (size_t i = 0; i < nf; ++i) {
    if (flows_[i].offered_gbps <= 0.0) {
      active[i] = 0;  // Zero-demand flows are frozen at 0 immediately.
    } else {
      ++n_active;
    }
  }

  // Progressive filling: raise every active flow by the largest uniform
  // increment no constraint forbids, then freeze the flows whose constraint
  // bound. Each pass freezes at least one flow, so the loop runs at most
  // `nf` times.
  size_t* active_at = scratch_.AllocateArray<size_t>(nr);
  while (n_active > 0) {
    std::fill(active_at, active_at + nr, 0);
    for (size_t i = 0; i < nf; ++i) {
      if (!active[i]) {
        continue;
      }
      for (ResourceId r : flows_[i].resources) {
        ++active_at[static_cast<size_t>(r)];
      }
    }

    double delta = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < nf; ++i) {
      if (active[i]) {
        delta = std::min(delta, flows_[i].offered_gbps - alloc[i]);
      }
    }
    for (size_t r = 0; r < nr; ++r) {
      if (active_at[r] > 0) {
        delta = std::min(delta, headroom[r] / static_cast<double>(active_at[r]));
      }
    }
    delta = std::max(delta, 0.0);

    for (size_t i = 0; i < nf; ++i) {
      if (active[i]) {
        alloc[i] += delta;
      }
    }
    for (size_t r = 0; r < nr; ++r) {
      headroom[r] -= delta * static_cast<double>(active_at[r]);
    }

    // Freeze flows that met their demand or whose path saturated.
    bool froze = false;
    for (size_t i = 0; i < nf; ++i) {
      if (!active[i]) {
        continue;
      }
      bool freeze = ApproxEqual(alloc[i], flows_[i].offered_gbps);
      for (ResourceId r : flows_[i].resources) {
        const size_t rr = static_cast<size_t>(r);
        freeze = freeze || headroom[rr] <= kRelTol * std::max(1.0, capacity[rr]);
      }
      if (freeze) {
        active[i] = 0;
        --n_active;
        froze = true;
      }
    }
    if (!froze) {
      // Numerical backstop: the minimum constraint should always freeze a
      // flow; if rounding prevented it, stop rather than spin.
      break;
    }
  }
}

BandwidthSolver::Solution BandwidthSolver::Solve() const {
  ++solve_calls_;
  // Warm-start fast path: identical structure + equal offered loads reuse
  // the cached Solution, which *is* the cold solve of these inputs.
  if (CacheStructureMatches()) {
    bool equal = true;
    for (size_t i = 0; i < flows_.size() && equal; ++i) {
      equal = flows_[i].offered_gbps == cache_.flows[i].offered_gbps;
    }
    if (equal) {
      ++cache_hits_;
      return cache_.solution;
    }
  }
  Solution sol = SolveMaxMin();
  cache_.valid = true;
  cache_.resource_profiles.resize(resources_.size());
  for (size_t r = 0; r < resources_.size(); ++r) {
    cache_.resource_profiles[r] = resources_[r].profile;
  }
  cache_.flows = flows_;
  cache_.solution = sol;
  return sol;
}

BandwidthSolver::Solution BandwidthSolver::SolveMaxMin() const {
  Solution sol;

  const size_t nf = flows_.size();
  const size_t nr = resources_.size();

  scratch_.Reset();
  // The blend basis weights each flow's read fraction by its rate. Offered
  // loads seed the basis; each round re-blends at the previous allocation.
  double* basis = scratch_.AllocateArray<double>(nf);
  for (size_t i = 0; i < nf; ++i) {
    basis[i] = flows_[i].offered_gbps;
  }

  double* capacity = scratch_.AllocateArray<double>(nr);
  std::fill(capacity, capacity + nr, 0.0);
  double* alloc = scratch_.AllocateArray<double>(nf);
  std::fill(alloc, alloc + nf, 0.0);
  for (int round = 0; round < kMaxRounds; ++round) {
    ++sol.iterations;
    for (size_t r = 0; r < nr; ++r) {
      capacity[r] = BlendedCapacity(r, basis);
    }
    WaterFill(capacity, alloc);
    bool converged = true;
    for (size_t i = 0; i < nf; ++i) {
      converged = converged && ApproxEqual(alloc[i], basis[i]);
    }
    std::copy(alloc, alloc + nf, basis);
    if (converged) {
      break;
    }
  }

  FinishSolution(alloc, capacity, &sol);
  return sol;
}

void BandwidthSolver::FinishSolution(const double* throughput, const double* capacity,
                                     Solution* sol) const {
  sol->flows.resize(flows_.size());
  sol->resources.resize(resources_.size());

  for (size_t r = 0; r < resources_.size(); ++r) {
    ResourceResult& rr = sol->resources[r];
    rr.name = resources_[r].name;
    rr.capacity_gbps = capacity[r];
    for (size_t i = 0; i < flows_.size(); ++i) {
      const Flow& f = flows_[i];
      if (std::find(f.resources.begin(), f.resources.end(), static_cast<ResourceId>(r)) !=
          f.resources.end()) {
        rr.demand_gbps += f.offered_gbps;
        rr.achieved_gbps += throughput[i];
      }
    }
    rr.utilization = rr.capacity_gbps > 0.0 ? rr.achieved_gbps / rr.capacity_gbps : 0.0;
  }

  // Flow results: latency from the most-congested resource on the path.
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    FlowResult& fr = sol->flows[i];
    fr.achieved_gbps = throughput[i];
    double u = 0.0;
    for (ResourceId r : f.resources) {
      u = std::max(u, sol->resources[static_cast<size_t>(r)].utilization);
    }
    fr.bottleneck_utilization = u;
    fr.latency_ns = f.profile->MakeQueueModel(f.mix, f.pattern).LatencyAt(u);
  }
}

SingleFlowPoint SolveSingleFlow(const PathProfile& profile, const AccessMix& mix,
                                double offered_gbps, AccessPattern pattern) {
  SingleFlowPoint pt;
  pt.achieved_gbps = profile.AchievedBandwidthGBps(mix, offered_gbps, pattern);
  const double peak = profile.PeakBandwidthGBps(mix, pattern);
  pt.utilization = peak > 0.0 ? std::min(offered_gbps / peak, 1.0) : 0.0;
  pt.latency_ns = profile.LoadedLatencyNs(mix, offered_gbps, pattern);
  return pt;
}

}  // namespace cxl::mem
