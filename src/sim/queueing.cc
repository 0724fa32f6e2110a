#include "src/sim/queueing.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cxl::sim {

QueueModel::QueueModel(double idle_ns, double queue_scale, double knee_sharpness, double max_util)
    : idle_ns_(idle_ns),
      queue_scale_(queue_scale),
      knee_sharpness_(knee_sharpness),
      max_util_(max_util) {
  assert(idle_ns > 0.0 && queue_scale >= 0.0 && knee_sharpness >= 1.0);
  assert(max_util > 0.0 && max_util < 1.0);
}

double QueueModel::LatencyAt(double utilization) const {
  const double u = std::clamp(utilization, 0.0, max_util_);
  return idle_ns_ * (1.0 + queue_scale_ * std::pow(u, knee_sharpness_) / (1.0 - u));
}

double QueueModel::UtilizationForLatency(double latency_ns) const {
  if (latency_ns <= idle_ns_) {
    return 0.0;
  }
  if (latency_ns >= LatencyAt(max_util_)) {
    return max_util_;
  }
  double lo = 0.0;
  double hi = max_util_;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (LatencyAt(mid) < latency_ns) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double QueueModel::KneeUtilization(double factor) const {
  assert(factor > 1.0);
  return UtilizationForLatency(idle_ns_ * factor);
}

}  // namespace cxl::sim
