// Pluggable promotion-policy surface for the tiering daemon (§2.3, §8).
//
// The daemon (TieredMemory) owns the *mechanisms* — candidate scans over the
// packed page columns, the migration machinery, demotion cold pools, fault
// gates — while a TieringPolicy owns the *decisions*: which scan to run,
// what hotness threshold and promotion budget apply this tick, and whether
// to sit the tick out. After each tick the daemon feeds the policy a
// TickObservation (candidates, promoted/demoted volumes, rate-limit
// saturation, migration-outcome feedback, active fault state) so stateful
// policies can close the loop the paper's kernel daemon leaves open: the
// hot-page-selection heuristic adapts its threshold toward the rate limit
// but never asks whether the pages it promoted were worth moving — the
// mis-adaptation behind the Spark thrashing regression (§4.2.2).
//
// Three policies reproduce the kernel patches of §2.3 (hot page selection,
// MRU NUMA balancing, TPP-like); AdaptiveFeedbackPolicy adds the
// outcome-driven feedback loop. Third-party policies implement this
// interface and register in a PolicyRegistry (policy_registry.h).
#ifndef CXL_EXPLORER_SRC_OS_POLICY_H_
#define CXL_EXPLORER_SRC_OS_POLICY_H_

#include <cstdint>

namespace cxl::os {

struct TieringConfig;

// Which candidate-selection mechanism the daemon runs this tick. The fused
// single-pass implementations stay inside the daemon's warm pass
// (WarmSet::ScanWarm, which touches the SoA page columns directly), the
// policy only picks one.
enum class CandidateScan {
  // Heat >= threshold on the low tier, promoted hottest-first (post-v6.1
  // hot page selection).
  kHotnessRanked,
  // Touched since the last scan, promoted in scan order (the earlier MRU
  // NUMA-balancing patch).
  kRecency,
  // Accumulated heat >= 2 sampled hits, i.e. promote on the second observed
  // access (TPP-like active-list promotion).
  kSecondAccess,
};

// What the daemon tells the policy before a tick.
struct TickContext {
  double dt_seconds = 0.0;
  // Pages the configured rate limit allows this tick (the daemon computes
  // this from kernel.numa_balancing_promote_rate_limit_MBps exactly as the
  // legacy code did; policies scale or ignore it).
  uint64_t base_budget_pages = 0;
  double dram_free_fraction = 1.0;
  // Fault visibility (false/1.0 without an enabled injector): whether a
  // link-degrading window (down-train, CRC storm) is currently active, and
  // the resulting CXL latency inflation.
  bool link_degraded = false;
  double cxl_latency_factor = 1.0;
};

// What the policy tells the daemon to do this tick.
struct TickDecision {
  CandidateScan scan = CandidateScan::kHotnessRanked;
  // Hotness threshold for kHotnessRanked (ignored by the other scans).
  // A page qualifies when its float heat, compared as a double, is >= it.
  // The daemon tests that against the threshold rounded up to a float,
  // which is exact (round-to-nearest narrowing would flip borderline
  // candidates).
  double hot_threshold = 0.0;
  // Promotion budget in pages. uint64 max = unbounded (TPP).
  uint64_t budget_pages = 0;
  // Sit this tick out entirely (no scan, no decay) — the policy's own
  // backoff, distinct from the daemon's promotion-failure backoff. The
  // daemon emits a daemon_skipped_tick event with reason "policy".
  bool skip_tick = false;
};

// What the daemon reports back after a tick. All counts refer to the tick
// just executed; the migration-outcome fields close the feedback loop.
struct TickObservation {
  double dt_seconds = 0.0;
  uint64_t candidates = 0;
  uint64_t promoted_pages = 0;
  uint64_t demoted_pages = 0;
  // The budget the decision granted (after any policy scaling).
  uint64_t budget_pages = 0;
  double migrated_bytes = 0.0;
  // promoted / budget for bounded budgets (>= 1.0 means promotion-rate
  // bound — the §4.2.2 thrashing precondition).
  double rate_limit_saturation = 0.0;
  bool promotion_failed = false;
  double dram_free_fraction = 0.0;
  // Migration-outcome feedback from the daemon's promote-epoch stamps
  // (kHotnessRanked scans only; zero elsewhere):
  //  - recent_promoted: DRAM-resident pages promoted within the stamp
  //    window (the last few ticks).
  //  - recent_promoted_hot: of those, pages re-accessed this interval. A
  //    low hot/promoted ratio means promotions are not paying off — the
  //    stream moved on before the page earned its migration.
  //  - ping_pong_demotions: demoted pages that had been promoted within the
  //    window (the §4.2.3 demote-soon-after-promote signature).
  uint64_t recent_promoted = 0;
  uint64_t recent_promoted_hot = 0;
  uint64_t ping_pong_demotions = 0;
  // Fault visibility, mirrored from the tick's context.
  bool link_degraded = false;
  double cxl_latency_factor = 1.0;
};

// Decision interface. One policy instance serves one TieredMemory (policies
// are stateful: thresholds, learned aggressiveness); the daemon calls
// Decide() at tick start and Observe() at tick end (skipped ticks observe
// nothing). Implementations must be deterministic functions of their
// observation history — the sweep runner replays cells at any --jobs.
class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  // Registry name, e.g. "hot-page-selection".
  virtual const char* name() const = 0;
  // Reason code stamped on page_promote events (index into the
  // telemetry-side promote-reason table: 0 hot_threshold, 1 mru, 2 tpp,
  // 3 adaptive).
  virtual int32_t event_reason() const = 0;

  virtual TickDecision Decide(const TickContext& ctx) = 0;
  virtual void Observe(const TickObservation& obs) = 0;

  // Threshold currently in effect (reported in TickResult / telemetry even
  // for scans that ignore it, matching the legacy daemon's reporting).
  virtual double hot_threshold() const = 0;
};

// Post-v6.1 hot page selection: heat threshold + rate limit, with the
// dynamic threshold adjustment aiming candidate volume at the budget. What
// the paper's experiments use.
class HotPageSelectionPolicy : public TieringPolicy {
 public:
  explicit HotPageSelectionPolicy(const TieringConfig& config);

  const char* name() const override;
  int32_t event_reason() const override { return 0; }
  TickDecision Decide(const TickContext& ctx) override;
  void Observe(const TickObservation& obs) override;
  double hot_threshold() const override { return hot_threshold_; }

 private:
  double hot_threshold_;
  double initial_hot_threshold_;
  bool dynamic_threshold_;
};

// The earlier MRU NUMA-balancing patch: recency, no hotness ranking, no
// threshold adaptation. "It may not accurately identify high-demand pages
// due to extended scanning intervals" (§2.3).
class MruBalancingPolicy : public TieringPolicy {
 public:
  explicit MruBalancingPolicy(const TieringConfig& config);

  const char* name() const override;
  int32_t event_reason() const override { return 1; }
  TickDecision Decide(const TickContext& ctx) override;
  void Observe(const TickObservation&) override {}
  double hot_threshold() const override { return hot_threshold_; }

 private:
  double hot_threshold_;
};

// TPP-like second-access promotion with no rate limit (Meta's Transparent
// Page Placement, §2.3/§8). Responsive on stable hot sets, but under
// bandwidth-intensive or streaming workloads it migrates without bound —
// the degradation the paper reports when running TPP.
class TppLikePolicy : public TieringPolicy {
 public:
  explicit TppLikePolicy(const TieringConfig& config);

  const char* name() const override;
  int32_t event_reason() const override { return 2; }
  TickDecision Decide(const TickContext& ctx) override;
  void Observe(const TickObservation&) override {}
  double hot_threshold() const override { return hot_threshold_; }

 private:
  double hot_threshold_;
};

// Tuning surface for AdaptiveFeedbackPolicy. Defaults are deliberately
// conservative: on a stable hot set (KeyDB Zipf) the policy should be
// indistinguishable from hot page selection; only sustained evidence of
// wasted migrations cuts the budget.
struct AdaptiveFeedbackConfig {
  // EWMA smoothing for the promoted-page re-access ratio.
  double reaccess_alpha = 0.3;
  // Smoothed re-access ratio below which promotions count as wasted: fewer
  // than ~one in eight recently-promoted pages still being touched means
  // the hot set moved on before the migrations earned their cost.
  double reaccess_floor = 0.12;
  // Ping-pong guard (§4.2.3): demote-soon-after-promote volume above this
  // fraction of the tick's promotions marks the tick as thrashing even when
  // re-access looks acceptable.
  double ping_pong_ceiling = 0.5;
  // Ticks with fewer observed recently-promoted pages carry no signal and
  // leave the learned state untouched.
  uint64_t min_signal_pages = 16;
  // Consecutive thrashing ticks before the first budget cut (debounce).
  int thrash_arm_ticks = 2;
  // Multiplicative budget cut on a thrashing tick / recovery on a clean one.
  double cut_factor = 0.5;
  double recover_factor = 1.25;
  double min_aggressiveness = 1.0 / 32.0;
  // Cap of the exponential skip runs under a degraded link (2, 4, 8, ...).
  int backoff_max_ticks = 32;
};

// The feedback-loop policy the tentpole builds: hot-page-selection
// threshold dynamics, plus
//  - learned promotion aggressiveness: a budget multiplier driven down by
//    evidence that promoted pages stop being accessed (streaming/thrash
//    regimes) and recovered multiplicatively on clean ticks, so each
//    workload converges to its own promotion rate;
//  - congestion/thrash detection from the demote-soon-after-promote
//    ping-pong signature (§4.2.3);
//  - exponential backoff while a degraded-link fault window is active:
//    probe one tick, then sit out 2, 4, 8, ... ticks (capped), resetting
//    the moment the window closes — migration bandwidth is the last thing
//    a down-trained link needs.
class AdaptiveFeedbackPolicy : public TieringPolicy {
 public:
  explicit AdaptiveFeedbackPolicy(const TieringConfig& config,
                                  AdaptiveFeedbackConfig feedback = {});

  const char* name() const override;
  int32_t event_reason() const override { return 3; }
  TickDecision Decide(const TickContext& ctx) override;
  void Observe(const TickObservation& obs) override;
  double hot_threshold() const override { return hot_threshold_; }

  // Learned state, exposed for tests and the tournament bench.
  double aggressiveness() const { return aggressiveness_; }
  double smoothed_reaccess() const { return smoothed_reaccess_; }
  // True while the degraded-link backoff ladder is armed: either mid skip
  // run, or past the first degraded probe (the run length only resets when
  // Decide sees a healthy link).
  bool backing_off() const { return skip_remaining_ > 0 || next_skip_run_ > 1; }

 private:
  AdaptiveFeedbackConfig feedback_;
  double hot_threshold_;
  double initial_hot_threshold_;
  bool dynamic_threshold_;
  // Learned promotion aggressiveness in [min_aggressiveness, 1].
  double aggressiveness_ = 1.0;
  // EWMA of recent_promoted_hot / recent_promoted; negative = no samples.
  double smoothed_reaccess_ = -1.0;
  int thrash_streak_ = 0;
  // Degraded-link backoff state.
  int skip_remaining_ = 0;
  int next_skip_run_ = 1;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_POLICY_H_
