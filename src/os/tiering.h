// Tiered-memory management: hotness tracking + hot-page promotion daemon.
//
// Models the two kernel mechanisms the paper evaluates (§2.3):
//
//  1. NUMA balancing / hint-fault sampling: accesses are *sampled* (page
//     table scans + hint faults observe a fraction of real accesses) into a
//     per-page decayed heat counter.
//  2. Hot page selection with a Promotion Rate Limit
//     (kernel.numa_balancing_promote_rate_limit_MBps): each daemon tick
//     promotes the hottest low-tier (CXL) pages into DRAM, bounded by the
//     rate limit, demoting cold DRAM pages when DRAM is near-full. The hot
//     threshold can be adjusted dynamically to aim the candidate rate at the
//     rate limit — the very mechanism whose mis-adaptation causes the Spark
//     thrashing regression the paper reports (§4.2.2).
//
// *Which* pages promote, under what threshold and budget, is decided by a
// pluggable TieringPolicy (src/os/policy.h) resolved by name through the
// PolicyRegistry; TieredMemory owns the mechanisms (scans, migration,
// demotion pools, fault gates) and feeds the policy per-tick observations.
#ifndef CXL_EXPLORER_SRC_OS_TIERING_H_
#define CXL_EXPLORER_SRC_OS_TIERING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/os/page.h"
#include "src/os/page_allocator.h"
#include "src/os/policy.h"
#include "src/os/vmstat.h"
#include "src/telemetry/metrics.h"
#include "src/util/arena.h"
#include "src/util/knobs.h"
#include "src/topology/platform.h"

namespace cxl::os {

// Legacy three-way policy selector, kept one release as a configuration
// alias: TieringConfig::policy (a PolicyRegistry name) is the first-class
// selector, and an empty name falls back to this enum via
// PolicyNameForMode(). The former per-mode branches in Tick() now live in
// HotPageSelectionPolicy / MruBalancingPolicy / TppLikePolicy (§2.3):
//  - kHotPageSelection: the post-v6.1 patch — heat threshold (optionally
//    dynamic) + promotion rate limit. What the paper's experiments use.
//  - kMruBalancing: the earlier NUMA-balancing patch — promotes *recently
//    accessed* pages (MRU) with no hotness threshold. "It may not
//    accurately identify high-demand pages due to extended scanning
//    intervals, potentially causing latency issues for some workloads."
//  - kTppLike (Meta's Transparent Page Placement, §2.3/§8): promote a page
//    on its *second* observed access ("active list" promotion) with NO rate
//    limit. Responsive on stable hot sets, but under bandwidth-intensive or
//    streaming workloads it migrates without bound — the paper "faced
//    challenges with TPP when running memory-bandwidth-intensive
//    applications, resulting in unexplained performance degradation".
enum class PromotionMode {
  kHotPageSelection,
  kMruBalancing,
  kTppLike,
};

struct TieringConfig {
  // PolicyRegistry name of the promotion policy ("hot-page-selection",
  // "mru-balancing", "tpp-like", "adaptive-feedback"). Empty = derive from
  // the legacy `mode` enum below.
  std::string policy;
  // Deprecated alias for `policy` (one release): consulted only when
  // `policy` is empty.
  PromotionMode mode = PromotionMode::kHotPageSelection;
  // kernel.numa_balancing_promote_rate_limit_MBps. The kernel default is
  // 65536 (64 GiB/s, effectively unlimited); the paper's experiments ran the
  // post-v6.1 dynamic-threshold variant.
  double promote_rate_limit_mbps = 65536.0;
  // Initial hot threshold in (sampled) accesses per daemon interval.
  double initial_hot_threshold = 4.0;
  // Dynamically adjust the threshold to match promotion candidates to the
  // rate limit (the "hot page selection" patch behaviour).
  bool dynamic_threshold = true;
  // Exponential decay applied to page heat each tick.
  double heat_decay = 0.5;
  // Demote cold DRAM pages when DRAM free fraction falls below this.
  double demotion_free_watermark = 0.02;
  // Fraction of real accesses observed by hint-fault sampling.
  double hint_fault_sample_rate = 0.05;

  // The effective PolicyRegistry name (policy, or the mode-derived name).
  const char* PolicyName() const;
};

// Declares the sysctl-style knobs that mirror this config in `knobs`
// (kernel.numa_balancing_promote_rate_limit_MBps, vm.tiering_policy, ...).
// vm.numa_balancing_mode remains declared as a deprecated numeric alias of
// vm.tiering_policy; setting it warns once per KnobSet.
void DeclareTieringKnobs(KnobSet& knobs);

// Builds a TieringConfig from declared knob values (knobs not declared fall
// back to TieringConfig defaults). An explicitly set vm.numa_balancing_mode
// overrides vm.tiering_policy for one release (deprecated-alias semantics).
TieringConfig TieringConfigFromKnobs(const KnobSet& knobs);

// Exact k-smallest selection over unique (heat, id) pairs — how the daemon
// picks its demotion cold pool. An offered entry is buffered only while it
// sorts below a falling cut; when the buffer reaches 2k entries,
// nth_element keeps the k smallest and the k-th of them becomes the new
// cut, so each accepted entry costs O(1) amortised. Finish() sorts the
// survivors ascending. Ids are unique, so (heat, id) is a total order with
// one k-smallest set: the output is the sequence a bounded max-heap plus
// sort_heap, or a full partial_sort, would produce.
class ColdPoolSelector {
 public:
  using Entry = std::pair<float, PageId>;

  // Selects into `pool`, which is cleared but keeps its capacity (the
  // daemon reuses one buffer across ticks). `pool` must outlive the
  // selector.
  ColdPoolSelector(std::vector<Entry>& pool, uint64_t k);

  void Offer(const Entry& entry) {
    if (entry < cut_) {
      pool_.push_back(entry);
      if (pool_.size() == 2 * k_) {
        Shrink();
      }
    }
  }

  // Leaves the k smallest offered entries (all of them, if fewer) in
  // `pool`, ascending.
  void Finish();

 private:
  void Shrink();

  std::vector<Entry>& pool_;
  size_t k_;
  Entry cut_;
};

class TieredMemory {
 public:
  TieredMemory(PageAllocator& allocator, TieringConfig config);

  // Feeds `accesses` real accesses to `page` into the (sampled) heat
  // counter. Called by application models once per simulation step per page
  // group.
  void RecordAccess(PageId page, uint64_t accesses);

  // Runs one daemon interval covering `dt_seconds` of simulated time.
  struct TickResult {
    uint64_t promoted_pages = 0;
    uint64_t demoted_pages = 0;
    double migrated_bytes = 0.0;   // Promotion + demotion traffic.
    double hot_threshold = 0.0;    // Threshold in effect after adjustment.
    uint64_t candidates = 0;       // Hot low-tier pages seen this tick.
  };
  TickResult Tick(double dt_seconds);

  // Everything the daemon reports to or consults besides the allocator,
  // attached in one call so future sinks extend the struct instead of each
  // growing another setter. All fields are nullable (detach by attaching a
  // default-constructed Observers) and purely optional:
  //  - telemetry: every subsequent Tick() appends the daemon's state into
  //    the sink — time series (tiering.hot_threshold, promote/demote rates,
  //    rate-limit saturation, vmstat.* counters), counters/gauges, and one
  //    span per tick on the "promotion-daemon" trace track, stamped on an
  //    internal simulated clock (the sum of dt_seconds). Attaching must not
  //    change promotion behaviour.
  //  - faults: read at each Tick(): while a kDaemonStall event covers the
  //    injector's clock the tick does no scanning, promotion, or decay (the
  //    kernel thread is wedged), and repeated promotion failures on the
  //    degraded path arm an exponential backoff of skipped ticks (capped by
  //    FaultTunables::backoff_max_ticks). With a null or disabled injector
  //    every tick behaves exactly as before — byte-identical runs.
  //  - policy: overrides the config-constructed policy with a caller-owned
  //    instance (must outlive the daemon) — how tests and benches inspect
  //    learned policy state after a run. Null keeps the owned policy.
  // Re-attaching with an unchanged telemetry pointer keeps the cached
  // metric handles and trace track (so repeated Attach calls are free).
  struct Observers {
    telemetry::MetricRegistry* telemetry = nullptr;
    const fault::FaultInjector* faults = nullptr;
    TieringPolicy* policy = nullptr;
  };
  void Attach(const Observers& observers);

  // Degraded-path quarantine: takes `page` out of promotion consideration
  // permanently and demotes it to the low tier if it currently sits in
  // DRAM (a poisoned cacheline must not be re-promoted into the hot set).
  // Returns true when the page was newly quarantined. Only the fault paths
  // call this; healthy runs keep the set empty.
  bool QuarantinePage(PageId page);
  uint64_t QuarantinedPages() const { return quarantined_.size(); }

  // Remaining ticks of promotion-failure backoff (tests/telemetry).
  int BackoffTicksRemaining() const { return backoff_ticks_remaining_; }

  // DRAM nodes are the top tier; CXL nodes the low tier (§2.3).
  bool IsTopTier(topology::NodeId node) const;

  double hot_threshold() const { return policy_->hot_threshold(); }
  const TieringConfig& config() const { return config_; }
  PageAllocator& allocator() { return allocator_; }

  // The active decision policy (the attached override, else the owned one).
  TieringPolicy& policy() { return *policy_; }
  const TieringPolicy& policy() const { return *policy_; }

  // Pages currently resident on low-tier nodes (for tests/telemetry).
  uint64_t LowTierPages() const;

 private:
  // Demotes up to `count` of the coldest DRAM pages to make room. Returns
  // pages actually demoted.
  uint64_t DemoteColdPages(uint64_t count);

  // Pool size for demotion batches of `batch` pages: four batches of
  // headroom (at least 4096 pages), capped at the DRAM-resident count.
  uint64_t ColdPoolSize(uint64_t batch) const;

  // Refills cold_pool_ with the `k` coldest DRAM-resident pages by a
  // dedicated scan — only when a tick's demotions drain the pool its
  // candidate scan built.
  void BuildColdPool(uint64_t k);

  // Finishes `selector` into cold_pool_ and resets the consumption cursor.
  void InstallColdPool(ColdPoolSelector& selector);

  // Appends one tick's worth of telemetry (no-op without a sink).
  void EmitTickTelemetry(const TickResult& result, double dt_seconds);

  // Appends this tick's structured events (page_promote / page_demote with
  // reason codes); no-op without a sink. `watermark_demoted` is the portion
  // of result.demoted_pages freed by the watermark branch rather than by
  // DRAM pressure inside the promotion loop.
  void EmitTickEvents(const TickResult& result, uint64_t watermark_demoted);

  PageAllocator& allocator_;
  TieringConfig config_;
  uint32_t epoch_ = 0;  // Scan interval counter (recency stamps).

  // Decision policy: owned instance built from config_ at construction;
  // policy_ points at it unless Attach() supplied an override.
  std::unique_ptr<TieringPolicy> owned_policy_;
  TieringPolicy* policy_ = nullptr;

  // Migration-outcome bookkeeping feeding TickObservation (observational
  // only — never consulted by the mechanisms themselves):
  // promote-epoch stamp per page, epoch_ + 1 at promotion time (0 = never
  // promoted), so a demotion or re-access of a recently promoted page is
  // recognisable within the stamp window.
  std::vector<uint32_t> promote_epoch_;
  uint64_t tick_ping_pong_ = 0;             // Demotions of recently promoted pages.
  uint64_t tick_recent_promoted_ = 0;       // Recently promoted pages seen in DRAM.
  uint64_t tick_recent_promoted_hot_ = 0;   // ...of those, re-accessed this interval.

  // Per-tick transients (candidate lists) bump-allocate here; Reset() at each Tick() entry recycles the blocks, so
  // steady-state ticks do no heap allocation.
  Arena tick_arena_;

  // Demotion cold pool: the coldest DRAM pages in ascending (heat, id)
  // order, selected by a ColdPoolSelector inside each tick's one candidate
  // scan and consumed across the several DemoteColdPages calls a single Tick
  // makes (heat is constant within a tick, so the remaining pool entries
  // stay the exact k-smallest of the shrinking DRAM set). Invalidated at
  // every tick start (decay/access change heat) and whenever a page enters
  // DRAM whose (heat, id) sorts at or below the pool's floor — such a page
  // would belong in the pool (cheap test, rare: promoted pages are hot by
  // construction). An invalid or drained pool is refilled by BuildColdPool.
  std::vector<ColdPoolSelector::Entry> cold_pool_;
  size_t cold_pool_next_ = 0;
  bool cold_pool_valid_ = false;
  ColdPoolSelector::Entry cold_pool_floor_{0.0f, 0};

  // Telemetry (observational only).
  telemetry::MetricRegistry* telemetry_ = nullptr;
  telemetry::TraceBuffer::TrackId telemetry_track_ = 0;
  double sim_seconds_ = 0.0;  // Sum of Tick() dt_seconds.
  // Cached metric/series handles, resolved lazily at the first emitting tick
  // (so attaching a sink without ever ticking registers nothing, exactly as
  // the by-name path behaved).
  struct TickTelemetryHandles {
    bool attached = false;
    telemetry::TimeSeries* hot_threshold = nullptr;
    telemetry::TimeSeries* candidates = nullptr;
    telemetry::TimeSeries* promote_mbps = nullptr;
    telemetry::TimeSeries* demote_mbps = nullptr;
    telemetry::TimeSeries* rate_limit_saturation = nullptr;
    telemetry::TimeSeries* low_tier_pages = nullptr;
    telemetry::TimeSeries* reaccess_ratio = nullptr;
    telemetry::TimeSeries* ping_pong = nullptr;
    VmCounterSeries vmstat;
    telemetry::Counter* ticks = nullptr;
    telemetry::Counter* promoted_pages = nullptr;
    telemetry::Counter* demoted_pages = nullptr;
    telemetry::Gauge* hot_threshold_gauge = nullptr;
    telemetry::Gauge* rate_limit_saturation_gauge = nullptr;
  };
  TickTelemetryHandles handles_;

  // Fault handling (inert unless an enabled injector is attached).
  const fault::FaultInjector* faults_ = nullptr;
  std::unordered_set<PageId> quarantined_;
  int promotion_failure_streak_ = 0;
  int backoff_ticks_remaining_ = 0;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_TIERING_H_
