// Deterministic fault injection for the CXL memory-expansion simulator.
//
// A production A1000 deployment must survive link down-training, CRC retry
// storms, poisoned cachelines, throttled DRAM channels, wedged tiering
// daemons, and flash-tier IO errors. This module turns each of those into a
// timed, seeded FaultEvent so every layer of the stack can exercise its
// graceful-degradation path reproducibly: the same FaultPlan and seed yield
// the same degraded run, serial or under any --jobs fan-out.
//
// Layering: fault sits directly above mem (it derives degraded link
// bandwidth from the same §3.4 flit accounting that produces the healthy
// 73.6% efficiency) and below os/apps, which query a FaultInjector for the
// current degradation state and draw per-op samples from its private RNG.
// When the plan is empty the injector is inert: no draws, no state, no
// telemetry — callers stay byte-identical to a build without fault support.
#ifndef CXL_EXPLORER_SRC_FAULT_FAULT_H_
#define CXL_EXPLORER_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/mem/cxl_link.h"
#include "src/telemetry/metrics.h"
#include "src/util/knobs.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cxl::fault {

// The fault taxonomy. `severity` in FaultEvent is interpreted per type.
enum class FaultType {
  kLaneDowntrain,      // severity = surviving lanes (16 -> 8 -> 4).
  kCrcRetryStorm,      // severity = extra link maintenance_fraction.
  kPoisonedCacheline,  // severity = per-read poison probability.
  kDramThrottle,       // severity = fraction of DRAM bandwidth retained.
  kDaemonStall,        // severity unused; tiering daemon misses its ticks.
  kFlashIoError,       // severity = per-SSD-read timeout/error probability.
};

// Short stable name used by the --faults spec grammar and telemetry.
const char* FaultTypeName(FaultType type);

// One timed fault: active over [start_s, start_s + duration_s) of simulated
// time. The default duration is "until the end of the run".
struct FaultEvent {
  FaultType type = FaultType::kLaneDowntrain;
  double start_s = 0.0;
  double duration_s = std::numeric_limits<double>::infinity();
  double severity = 0.0;

  double end_s() const { return start_s + duration_s; }
  bool ActiveAt(double t_s) const { return t_s >= start_s && t_s < end_s(); }
};

// An ordered collection of FaultEvents with builder-style helpers and a
// textual spec grammar (see docs/faults.md):
//
//   spec    := event (',' event)*
//   event   := type ['@' start_s] ['+' duration_s] ['=' severity] | 'storm'
//   type    := downtrain | crc | poison | throttle | stall | flash
//
// e.g. "downtrain@2+3=8,poison=1e-4" down-trains to x8 from t=2s for 3s and
// poisons reads with probability 1e-4 for the whole run. The named preset
// "storm" expands to a canonical multi-fault plan (Storm()).
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& Downtrain(double start_s, double duration_s, int lanes);
  FaultPlan& CrcStorm(double start_s, double duration_s, double extra_maintenance);
  FaultPlan& Poison(double start_s, double duration_s, double probability);
  FaultPlan& DramThrottle(double start_s, double duration_s, double bandwidth_factor);
  FaultPlan& DaemonStall(double start_s, double duration_s);
  FaultPlan& FlashErrors(double start_s, double duration_s, double probability);
  FaultPlan& Add(FaultEvent event);

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Parses the spec grammar above. Unknown types, malformed numbers, and
  // out-of-range severities are INVALID_ARGUMENT. Empty spec -> empty plan.
  static StatusOr<FaultPlan> Parse(std::string_view spec);

  // The canonical multi-fault storm used by bench_fault_storms and the
  // "storm" spec keyword: down-train to x8 at 1s for 4s, a CRC retry storm
  // at 2s, background poison, a daemon stall at 3s, and flash errors.
  static FaultPlan Storm();

 private:
  std::vector<FaultEvent> events_;
};

// Knob-tunable degradation-response parameters shared by all layers.
// Defaults are conservative production-ish values; DeclareFaultKnobs() makes
// them discoverable through KnobSet::entries().
struct FaultTunables {
  // KV server: reread attempts before a poisoned line is declared lost.
  int poison_read_retries = 2;
  // KV server: a flash IO error costs this many times the normal SSD read
  // before the retry is issued (timeout expiry).
  double flash_timeout_factor = 10.0;
  // KV server load shedding: arm after this many consecutive epochs whose
  // mean latency exceeds shed_latency_factor x the first healthy epoch.
  double shed_latency_factor = 1.6;
  int shed_arm_epochs = 2;
  // Fraction of arrivals rejected while shedding (deterministic 1-in-k).
  double shed_fraction = 0.25;
  // Tiering daemon: exponential backoff cap (ticks) after repeated
  // promotion failures on the degraded path.
  int backoff_max_ticks = 64;
  // LLM serving: shrink the decode batch while CXL bandwidth is below this
  // factor of healthy, until per-token latency is within slo_factor.
  double llm_batch_shrink_threshold = 0.85;
  double llm_latency_slo_factor = 1.5;
  // Spark: shuffle partitions per stage (re-execution granularity) and the
  // per-partition fetch-failure probability while the link is degraded.
  int spark_shuffle_partitions = 200;
  double spark_fetch_failure_probability = 0.02;
};

// Registers every tunable above as "fault.*" knobs with its default and a
// one-line description, so `entries()` documents the fault surface.
void DeclareFaultKnobs(KnobSet& knobs);

// Reads the "fault.*" knobs back into a FaultTunables (declared-or-default).
FaultTunables FaultTunablesFromKnobs(const KnobSet& knobs);

// Replays a FaultPlan against simulated time and answers "how degraded is
// the world right now?" queries. Deterministic: all probabilistic draws come
// from a private RNG seeded at construction, and draws happen only while
// the corresponding fault is active, so a run with an empty plan consumes
// nothing and perturbs nothing.
//
// Single-writer like MetricRegistry: one injector per sweep cell, advanced
// monotonically by that cell's simulation clock.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, uint64_t seed = 1, FaultTunables tunables = {});

  // Optional sink: fault activations/retirements are recorded as counters
  // and spans on the "faults" track. Must be attached before AdvanceTo.
  void AttachTelemetry(telemetry::MetricRegistry* sink);

  // True when the plan has at least one event. Layers gate every
  // degradation code path on this so an absent/empty injector is a no-op.
  bool enabled() const { return !plan_.empty(); }

  const FaultPlan& plan() const { return plan_; }
  const FaultTunables& tunables() const { return tunables_; }

  // Moves the injector's clock forward (monotonic; backwards moves are
  // clamped) and recomputes the active-fault aggregate.
  void AdvanceTo(double t_s);
  double now_s() const { return now_s_; }

  // --- Aggregate degradation state at now_s() ---------------------------
  // Surviving CXL lanes (16 when healthy; min across active down-trains).
  int active_lanes() const { return lanes_; }
  // Effective CXL bandwidth as a fraction of the healthy link, derived from
  // the §3.4 flit accounting (lane ratio x maintenance inflation).
  double CxlBandwidthFactor() const { return cxl_bw_factor_; }
  // Loaded-latency inflation on the CXL path (~1/bandwidth factor).
  double CxlLatencyFactor() const { return cxl_bw_factor_ > 0.0 ? 1.0 / cxl_bw_factor_ : 1.0; }
  // DRAM channel throttle: fraction of bandwidth retained / its latency cost.
  double DramBandwidthFactor() const { return dram_factor_; }
  double DramLatencyFactor() const { return dram_factor_ > 0.0 ? 1.0 / dram_factor_ : 1.0; }
  // True while a kDaemonStall event covers now_s().
  bool DaemonStalled() const { return stalled_; }
  // True while any link-degrading window (down-train, CRC storm) is active —
  // the signal tiering policies use to back their migration traffic off.
  bool LinkDegraded() const { return link_degraded_; }
  double PoisonProbability() const { return poison_p_; }
  double FlashErrorProbability() const { return flash_p_; }
  // True when any event is active at now_s().
  bool AnyActive() const { return active_count_ > 0; }

  // --- Per-op samples (draw from the private fault RNG) -----------------
  // Each returns false without consuming a draw when the corresponding
  // fault is inactive, preserving determinism across plan variations.
  bool SamplePoisonedRead();
  bool SampleFlashError();
  // Bernoulli draw used by Spark's shuffle fetch; only draws while the CXL
  // link is degraded (down-train or CRC storm active).
  bool SampleShuffleFailure(double probability);

  // --- Causal attribution -----------------------------------------------
  // Fault-window ids are indices into plan().events(); kFaultWindowOpen /
  // kFaultWindowClose events carry the same ids, so degradation responses
  // that record one of these join back to their cause. Each query returns
  // telemetry::kNoWindow when nothing qualifies at now_s().
  //
  // Earliest-starting (ties: lowest index) active window of `type`.
  int32_t ActiveWindowOf(FaultType type) const;
  // Earliest active link-degrading window (down-train or CRC storm).
  int32_t ActiveLinkWindow() const;
  // Attribution for responses with no single fault type: the earliest
  // active window, else the most recently opened one.
  int32_t AttributedWindow() const;

 private:
  void Recompute();

  FaultPlan plan_;
  FaultTunables tunables_;
  Rng rng_;
  telemetry::MetricRegistry* telemetry_ = nullptr;
  telemetry::TraceBuffer::TrackId track_ = 0;

  double now_s_ = 0.0;
  // Aggregate state, refreshed by Recompute().
  int lanes_ = 16;
  double extra_maintenance_ = 0.0;
  double poison_p_ = 0.0;
  double dram_factor_ = 1.0;
  double flash_p_ = 0.0;
  double cxl_bw_factor_ = 1.0;
  bool stalled_ = false;
  bool link_degraded_ = false;
  int active_count_ = 0;
  // Telemetry bookkeeping: which events have had their activation /
  // retirement recorded.
  std::vector<bool> announced_;
  std::vector<bool> closed_;
};

// Post-hoc attribution (same policy as FaultInjector::AttributedWindow but
// as a pure function of the plan): the window responsible at `t_s` —
// earliest active, else most recently opened with start_s <= t_s (ties:
// lowest index), else telemetry::kNoWindow. The SLO engine binds this per
// sweep cell as its telemetry::WindowAttributor.
int32_t AttributeWindowAt(const FaultPlan& plan, double t_s);

// Derived link math shared with mem: bandwidth retained by `base` after
// down-training to `active_lanes` (of 16) with `extra_maintenance` added to
// the flit maintenance fraction, as a fraction of the healthy effective rate.
double DegradedLinkBandwidthFactor(const mem::CxlLinkConfig& base, int active_lanes,
                                   double extra_maintenance);

}  // namespace cxl::fault

#endif  // CXL_EXPLORER_SRC_FAULT_FAULT_H_
