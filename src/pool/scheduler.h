// Pool scheduler: drives acquire/grow/release against a Rack over simulated
// time, with ballooning and stranding accounting.
//
// Each host declares a pooled-capacity demand per step (its working set
// beyond local DRAM); SetDemand converges the host's leases toward it:
//
//   - shrink: slack above the rounded demand is released furthest-expander-
//     first, so the cheap (fewest-hop) leases are the ones kept;
//   - grow: capacity is acquired nearest-expander-first; a grant on a
//     beyond-minimum-hop expander counts as a *spill* (it pays extra switch
//     latency; SchedulerStats::spill_grants counts them);
//   - balloon: when free capacity runs out, peers holding leases above their
//     own declared demand are deflated (their slack released) on the
//     expanders the starved host can reach, and the grow retries. This is
//     the pool-manager analogue of VM memory ballooning.
//
// Stranding: while unmet demand exists, free slices that no starved host can
// acquire — unreachable under the topology, or blocked by the per-host cap —
// are *stranded*. EndStep() accumulates the time series (mean/peak) behind
// the bench's stranding column; a flat topology strands nothing, a star
// topology strands every idle slice in a foreign group.
//
// Determinism: the scheduler is pure bookkeeping — no RNG, no wall clock,
// fixed iteration order (expanders nearest-first, hosts by ascending id) —
// so a sweep cell driving it is byte-identical at any --jobs fan-out.
// Telemetry is optional and observational (events only; attaching a sink
// must not change decisions).
#ifndef CXL_EXPLORER_SRC_POOL_SCHEDULER_H_
#define CXL_EXPLORER_SRC_POOL_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/pool/rack.h"
#include "src/telemetry/metrics.h"
#include "src/util/status.h"

namespace cxl::pool {

struct SchedulerConfig {
  bool ballooning = true;
  // Slack slices a host may hold above its declared demand before the
  // balloon reclaims them for a starved peer.
  uint64_t balloon_slack_slices = 0;
  // Lazy reclaim: a shrinking SetDemand keeps the leases (releasing pooled
  // memory means migrating pages off it, so hosts hold on) and only records
  // the lower demand. The slack stays harvestable by BalloonReclaim when a
  // peer starves — eager release pays the migration up front, sticky release
  // pays it only under actual pressure.
  bool sticky_release = false;
};

struct SchedulerStats {
  uint64_t grow_requests = 0;
  // SetDemand calls that ended below target even after ballooning.
  uint64_t grows_denied = 0;
  uint64_t granted_bytes = 0;
  uint64_t released_bytes = 0;
  // Grants placed on a beyond-minimum-hop expander (mesh spill).
  uint64_t spill_grants = 0;
  uint64_t balloon_reclaims = 0;  // Victim-host deflations.
  uint64_t balloon_reclaimed_bytes = 0;
  // Stranding / unmet-demand time series, accumulated by EndStep().
  uint64_t steps = 0;
  double stranded_byte_steps = 0.0;
  uint64_t peak_stranded_bytes = 0;
  double unmet_byte_steps = 0.0;
  uint64_t peak_unmet_bytes = 0;

  double MeanStrandedBytes() const {
    return steps == 0 ? 0.0 : stranded_byte_steps / static_cast<double>(steps);
  }
  double MeanUnmetBytes() const {
    return steps == 0 ? 0.0 : unmet_byte_steps / static_cast<double>(steps);
  }
};

class PoolScheduler {
 public:
  explicit PoolScheduler(Rack& rack, SchedulerConfig config = {});

  // Observational sink for kPoolBalloonReclaim events; `now_ms` advances the
  // event clock (set by the driving simulation each step).
  void AttachTelemetry(telemetry::MetricRegistry* sink) { telemetry_ = sink; }
  void set_now_ms(double now_ms) { now_ms_ = now_ms; }

  // Declares `host`'s pooled demand and drives its leases toward it (see
  // file comment). Ok when the lease covers the rounded demand afterwards;
  // ResourceExhausted when capacity ran out (partial grants are kept).
  Status SetDemand(int host, uint64_t demand_bytes);

  uint64_t demand(int host) const { return demand_[static_cast<size_t>(host)]; }
  // Rounded demand minus lease (0 when met).
  uint64_t UnmetBytes(int host) const;
  uint64_t TotalUnmetBytes() const;

  // Free bytes no starved host can acquire right now (see file comment);
  // 0 whenever every demand is met.
  uint64_t StrandedBytes() const;

  // Accumulates the stranding/unmet series for this step.
  void EndStep();

  const SchedulerStats& stats() const { return stats_; }
  Rack& rack() { return rack_; }

 private:
  uint64_t RoundUpToSlices(uint64_t bytes) const;
  // Grows `host` toward its target from free capacity; returns bytes granted.
  uint64_t GrowFromFree(int host, uint64_t need);
  // Deflates peers' slack on expanders `host` reaches; returns bytes freed.
  uint64_t BalloonReclaim(int host, uint64_t need);

  Rack& rack_;
  SchedulerConfig config_;
  std::vector<uint64_t> demand_;  // Rounded to slices, per host.
  SchedulerStats stats_;
  telemetry::MetricRegistry* telemetry_ = nullptr;
  double now_ms_ = 0.0;
};

}  // namespace cxl::pool

#endif  // CXL_EXPLORER_SRC_POOL_SCHEDULER_H_
