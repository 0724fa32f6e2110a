#include "src/os/bandwidth_aware.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/mem/profiles.h"

namespace cxl::os {

using mem::PathProfile;

BandwidthAwarePlanner::BandwidthAwarePlanner(const topology::Platform& platform, int cpu_socket,
                                             std::vector<topology::NodeId> dram_nodes)
    : platform_(platform), cpu_socket_(cpu_socket), dram_nodes_(std::move(dram_nodes)) {
  if (dram_nodes_.empty()) {
    dram_nodes_ = platform.DramNodes(cpu_socket);
  }
  assert(!dram_nodes_.empty());
}

double BandwidthAwarePlanner::Score(double mmem_share, const PlacementObjective& objective) const {
  mmem_share = std::clamp(mmem_share, 0.0, 1.0);
  const auto& dram_nodes = dram_nodes_;
  const auto cxl_nodes = platform_.CxlNodes();
  if (cxl_nodes.empty()) {
    mmem_share = 1.0;
  }

  // DRAM pool: traffic spreads over the configured local DRAM node(s).
  const PathProfile& dram = platform_.ProfileFor(cpu_socket_, dram_nodes[0]);
  const double d_m = objective.demand_gbps * mmem_share;
  const double peak_m = dram.PeakBandwidthGBps(objective.mix) * dram_nodes.size();
  const double b_m = std::min(d_m, 0.98 * peak_m);
  const double u_m = peak_m > 0.0 ? std::min(d_m / peak_m, 0.98) : 0.0;
  const double l_m = dram.MakeQueueModel(objective.mix).LatencyAt(u_m);
  const double q_m =
      std::pow(dram.IdleLatencyNs(objective.mix) / l_m, objective.latency_sensitivity);
  double score = b_m * q_m;

  if (mmem_share < 1.0 && !cxl_nodes.empty()) {
    const PathProfile& cxl = platform_.ProfileFor(cpu_socket_, cxl_nodes[0]);
    const double d_c = objective.demand_gbps * (1.0 - mmem_share);
    const double peak_c = cxl.PeakBandwidthGBps(objective.mix) * cxl_nodes.size();
    const double b_c = std::min(d_c, 0.98 * peak_c);
    const double u_c = peak_c > 0.0 ? std::min(d_c / peak_c, 0.98) : 0.0;
    const double l_c = cxl.MakeQueueModel(objective.mix).LatencyAt(u_c);
    const double q_c =
        std::pow(cxl.IdleLatencyNs(objective.mix) / l_c, objective.latency_sensitivity) *
        objective.cxl_intrinsic_efficiency;
    score += b_c * q_c;
  }
  return score;
}

BandwidthAwarePlanner::Plan BandwidthAwarePlanner::Recommend(
    const PlacementObjective& objective) const {
  // Expressible N:M ratios, most-DRAM first (1:0 = MMEM only).
  struct Ratio {
    int top;
    int low;
  };
  static constexpr Ratio kRatios[] = {{1, 0}, {15, 1}, {7, 1}, {4, 1}, {3, 1}, {2, 1}, {3, 2},
                                      {1, 1}, {2, 3},  {1, 2}, {1, 3}, {1, 4}, {1, 7}};

  Plan best;
  best.mmem_only_score = Score(1.0, objective);
  best.score = best.mmem_only_score;
  for (const Ratio& r : kRatios) {
    const double share = static_cast<double>(r.top) / (r.top + r.low);
    const double s = Score(share, objective);
    if (s > best.score + 1e-12) {
      best.score = s;
      best.mmem_share = share;
      best.top_weight = r.top;
      best.low_weight = r.low;
    }
  }
  best.gain = best.mmem_only_score > 0.0 ? best.score / best.mmem_only_score - 1.0 : 0.0;
  return best;
}

}  // namespace cxl::os
