// First-principles memory-channel simulator: a test-only validation oracle
// for the queueing law (channel_sim_test.cc).
//
// The analytic QueueModel asserts a loaded-latency *law*; this module checks
// that the law is the right family by deriving loaded latency from an actual
// discrete-event simulation of a DRAM channel: Poisson arrivals, a pool of
// banks (finite service parallelism), FIFO overflow queueing, and a
// front-end pipeline latency. The calibration tests assert that the
// simulated curve reproduces the analytic shape (flat, then a knee in the
// 75-85% band, then an exponential-looking spike) — grounding the model the
// rest of the repository builds on.
#ifndef CXL_EXPLORER_TESTS_SIM_CHANNEL_SIM_H_
#define CXL_EXPLORER_TESTS_SIM_CHANNEL_SIM_H_

#include <cstdint>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace cxl::sim {

struct ChannelSimConfig {
  // Constant front-end latency: core -> LLC miss path -> controller -> IO.
  double pipeline_ns = 52.0;
  // Mean bank service time (row activate + CAS + restore; tRC-scale).
  double bank_service_ns = 45.0;
  // Row-buffer behaviour: hits are faster, misses slower. Service is drawn
  // uniformly in [hit, miss] around the mean.
  double row_hit_service_ns = 28.0;
  double row_miss_service_ns = 62.0;
  // Banks serving in parallel. Capacity = banks * access_bytes / service.
  int banks = 47;
  // Scheduler flexibility: each request may be steered to the shortest of
  // `scheduler_choices` candidate banks (FR-FCFS reordering and address
  // interleave give the controller some, but not full, freedom; 1 = strict
  // address-determined banking, banks = an idealized shared pool).
  int scheduler_choices = 2;
  // Fraction of requests the scheduler can actually steer (the rest are
  // bound to their bank by row locality / dependences).
  double steerable_fraction = 0.7;
  double access_bytes = 64.0;
  uint64_t requests = 200'000;
  uint64_t seed = 1;
};

struct ChannelSimPoint {
  double offered_gbps = 0.0;
  double achieved_gbps = 0.0;
  double mean_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double utilization = 0.0;
};

class MemoryChannelSim {
 public:
  explicit MemoryChannelSim(ChannelSimConfig config = {}) : config_(config) {}

  // Nominal capacity from bank parallelism (GB/s).
  double CapacityGBps() const;

  // Unloaded access latency (pipeline + mean service).
  double IdleLatencyNs() const {
    return config_.pipeline_ns + 0.5 * (config_.row_hit_service_ns + config_.row_miss_service_ns);
  }

  // Runs one open-loop experiment at the given offered load.
  ChannelSimPoint Run(double offered_gbps) const;

  // Sweeps offered load from 5% to ~97% of capacity.
  std::vector<ChannelSimPoint> Sweep(int points = 12) const;

  const ChannelSimConfig& config() const { return config_; }

 private:
  ChannelSimConfig config_;
};

}  // namespace cxl::sim

#endif  // CXL_EXPLORER_TESTS_SIM_CHANNEL_SIM_H_
