// Analytic queueing primitives.
//
// The paper's central microbenchmark result (Fig. 3/4) is the *loaded
// latency* curve: access latency stays near idle latency at low-to-moderate
// bandwidth utilization and spikes "exponentially" as utilization approaches
// saturation, with the knee at 75-83% of peak for local DDR5 and earlier for
// remote paths (§3.2). QueueModel captures that family of curves with three
// parameters and is the single latency-vs-load law used by every device
// model in src/mem.
#ifndef CXL_EXPLORER_SRC_SIM_QUEUEING_H_
#define CXL_EXPLORER_SRC_SIM_QUEUEING_H_

namespace cxl::sim {

// Latency-vs-utilization law:
//
//   latency(u) = idle_ns * (1 + queue_scale * u^knee_sharpness / (1 - u))
//
// - idle_ns:         latency at (near-)zero load.
// - queue_scale:     magnitude of the queueing term (memory-controller queue
//                    depth relative to service time).
// - knee_sharpness:  how flat the curve stays before the knee. Large values
//                    (~6) keep latency flat until high utilization (local
//                    DDR); small values (~2-3) move the knee left (remote
//                    socket paths, write-heavy mixes).
//
// Utilization is clamped to [0, max_util] so the model stays finite under
// overload; callers decide separately how much *bandwidth* is achievable.
class QueueModel {
 public:
  QueueModel() = default;
  QueueModel(double idle_ns, double queue_scale, double knee_sharpness, double max_util = 0.995);

  // Latency in ns at the given utilization in [0, 1].
  double LatencyAt(double utilization) const;

  // Inverse: the utilization at which latency reaches `latency_ns`
  // (bisection; returns max_util if unreachable).
  double UtilizationForLatency(double latency_ns) const;

  // The "knee": utilization at which latency exceeds `factor` x idle.
  // The paper observes the knee (factor ~1.3-1.5) at 75-83% utilization for
  // local DDR5, "surpassing prior estimates of 60%".
  double KneeUtilization(double factor = 1.5) const;

  double idle_ns() const { return idle_ns_; }
  double queue_scale() const { return queue_scale_; }
  double knee_sharpness() const { return knee_sharpness_; }
  double max_util() const { return max_util_; }

 private:
  double idle_ns_ = 100.0;
  double queue_scale_ = 0.15;
  double knee_sharpness_ = 6.0;
  double max_util_ = 0.995;
};

}  // namespace cxl::sim

#endif  // CXL_EXPLORER_SRC_SIM_QUEUEING_H_
