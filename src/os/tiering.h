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
// PolicyRegistry. As the kernel keeps hotness tracking apart from
// reclaim's cold lists and from per-folio migration state, each piece of
// daemon state has one owner: WarmSet (per-page heat), ColdPool (the
// demotion pool) and PromotionLedger (per-page migration history).
// TieredMemory runs the tick over them: the policy, migration, fault gates
// and telemetry.
#ifndef CXL_EXPLORER_SRC_OS_TIERING_H_
#define CXL_EXPLORER_SRC_OS_TIERING_H_

#include <algorithm>
#include <array>
#include <bit>
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
#include "src/topology/platform.h"

namespace cxl::os {

struct TieringConfig {
  // PolicyRegistry name of the promotion policy ("hot-page-selection",
  // "mru-balancing", "tpp-like", "adaptive-feedback"; see policy.h). Empty
  // = hot-page-selection, the post-v6.1 patch the paper's experiments use.
  std::string policy;
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

  // The effective PolicyRegistry name (policy, or hot-page-selection when
  // empty).
  const char* PolicyName() const;
};

// Exact k-smallest selection over unique (heat, id) pairs — how the daemon
// picks its demotion cold pool. Each pair travels as one Key: for a heat
// that is non-negative and not NaN the IEEE-754 bit pattern orders as the
// float does, so (bits(heat) << 32) | id orders exactly as the pair.
// An offered key is buffered only while it sorts below a falling cut; when
// the buffer reaches 2k keys, nth_element keeps the k smallest and the
// k-th of them becomes the new cut, so each accepted key costs O(1)
// amortised. Finish() sorts the survivors ascending. Ids are unique, so
// the keys are distinct and there is one k-smallest set: the output is the
// sequence a bounded max-heap plus sort_heap, or a full partial_sort,
// would produce.
class ColdPoolSelector {
 public:
  using Key = uint64_t;

  // The key of page `id` at `heat`. Heat must be non-negative (or -0.0f,
  // which the pair order ties with +0.0f and the key canonicalises to it)
  // and not NaN; `id` must fit in 32 bits, which TieredMemory asserts of
  // every page slot.
  static Key KeyOf(float heat, PageId id) {
    return (Key{std::bit_cast<uint32_t>(heat + 0.0f)} << 32) | id;
  }
  static PageId IdOf(Key key) { return key & 0xffffffffu; }
  static float HeatOf(Key key) { return std::bit_cast<float>(static_cast<uint32_t>(key >> 32)); }

  // Selects into `pool`, which is cleared but keeps its capacity (the
  // daemon reuses one buffer across ticks). `pool` must outlive the
  // selector.
  ColdPoolSelector(std::vector<Key>& pool, uint64_t k);

  // Heat of the cut: +inf before the first cut, -inf for k = 0. A key
  // Offer accepts has heat <= cut_heat(), and the cut only falls, so a heat
  // above it can skip the call. Kept beside the key because the key before
  // the first cut, which every real key sorts below, decodes to no heat.
  float cut_heat() const { return cut_heat_; }

  void Offer(Key key) {
    if (key < cut_) {
      pool_.push_back(key);
      if (pool_.size() == 2 * k_) {
        Shrink();
      }
    }
  }

  // Leaves the k smallest offered keys (all of them, if fewer) in `pool`,
  // ascending.
  void Finish();

  // Shrink() calls so far: a deterministic work counter.
  uint64_t shrinks() const { return shrinks_; }

 private:
  void Shrink();

  std::vector<Key>& pool_;
  size_t k_;
  Key cut_;
  float cut_heat_;
  uint64_t shrinks_ = 0;
};

// The promotion candidates' sort key: ascending keys are hottest first,
// page id breaking heat ties upward. Flipping the heat bits of KeyOf
// reverses the heat order and leaves the id order, and IdOf still reads
// the id.
inline ColdPoolSelector::Key HottestFirstKeyOf(float heat, PageId id) {
  return ColdPoolSelector::KeyOf(heat, id) ^ (ColdPoolSelector::Key{0xffffffffu} << 32);
}

// Heat decay as ticks apply it: `n` decays of a heat are n sequential
// multiplies by the factor, each rounded. When the factor is exactly 2^-m
// (1 <= m <= 126), a heat at or above ldexp(FLT_MIN, m c) stays normal
// through c such multiplies, each exact, so they are one multiply by
// 2^-(m c). Decays are taken so in chunks of c <= 126 / m while the heat
// is at its chunk's limit or above; every other heat or factor takes the
// sequential multiplies.
class HeatDecay {
 public:
  explicit HeatDecay(float factor);

  float factor() const { return factor_; }

  // `heat` after `n` decays. One decay, the common case of a word read
  // every tick, is the sweep's one multiply.
  float Apply(float heat, uint32_t n) const { return n == 1 ? heat * factor_ : ApplyMany(heat, n); }

  // Applies `n` decays to each of the 64 heats at `heat` (a dense warm-set
  // word): one vectorised multiply when every page is within the limit.
  void ApplyWord(float* heat, uint32_t n) const;

 private:
  float ApplyMany(float heat, uint32_t n) const;

  float factor_;
  int shift_ = 0;  // m, or 0 when the factor is no such power of two.
};

// Deterministic work counters of one daemon tick. Each owner below counts
// its own; Tick adds them into its TickResult as it returns.
struct TickWork {
  // Page slots whose columns this tick read: the warm-set visits of the
  // candidate/cold-pool pass and of cold-pool refills, the walk for
  // zero-heat pages and the promotion-feedback count. The decay reads no
  // page. Tracks the warm set, not page_count().
  uint64_t pages_visited = 0;
  // ColdPoolSelector::Offer calls of the cold pools the tick selected (its
  // pass's and its refills'), their zero-heat walks included. The pass
  // offers only the DRAM pages whose heat may reach the cut. A pool the
  // zero-heat DRAM pages outside the warm set cover is filled by an id walk
  // and offers none.
  uint64_t pool_offers = 0;
  // ColdPoolSelector::Shrink calls of those selections: at most one per k
  // offers accepted; none for a zero-heat pool.
  uint64_t pool_shrinks = 0;
  // Keys the tick sorted: each ColdPoolSelector::Finish's survivors and the
  // ranked promotion candidates. A zero-heat pool comes out of its walk in
  // order and adds none.
  uint64_t sorted_entries = 0;
  // Dense words the tick's warm passes skipped whole: their heat bounds put
  // every page above the cold pool's cut and below the candidate threshold.
  // The words still count in pages_visited.
  uint64_t dense_words_skipped = 0;
  // Warm-set words brought current (their pending decays applied) since the
  // previous Tick returned: by accesses, SettleHeat and this tick's passes.
  uint64_t heat_catch_ups = 0;

  TickWork& operator+=(const TickWork& other);
};

// Per-page migration history: what the daemon promoted and when, and what
// it quarantined. Observational only: it feeds the policy's
// TickObservation and the audit, and never decides a migration. A page id
// keeps its history across free and re-allocation.
//
// The history is a ring of kSlots per-tick promotion bitsets, one bit per
// page slot each: slot e % kSlots holds the pages the tick of epoch e
// promoted. TieredMemory::EndTick clears the slot of the next epoch at
// every tick, skipped ones included, so between ticks the ring holds the
// last kWindowTicks epochs and the next tick starts on an empty slot. Both
// feedback questions ask whether a page's last promotion lies in a window
// that ends at the current epoch, which holds exactly when some promotion
// does: the ring answers them at every epoch, in 10 bits per page slot with
// the recent set.
class PromotionLedger {
 public:
  // A tick's migration-outcome feedback, as TickObservation names it.
  struct Feedback {
    uint64_t recent_promoted = 0;      // Recently promoted pages seen in DRAM.
    uint64_t recent_promoted_hot = 0;  // ...of those, re-accessed this interval.
    uint64_t ping_pong_demotions = 0;  // Demotions of recently promoted pages.
  };

  // Promotions count as recent for this many ticks: a demotion (or a
  // re-access check) further from the promotion than this no longer counts
  // as migration-outcome feedback. Small enough that the signal tracks the
  // current regime, large enough to span the heat-decay half-life.
  static constexpr uint32_t kWindowTicks = 8;
  // The ring's slots: the window's past ticks and the current one.
  static constexpr uint32_t kSlots = kWindowTicks + 1;

  // Sizes the ring and the recent set to `words` words of 64 page slots,
  // for WarmSet::Grow. New pages start with no promotion.
  void Grow(size_t words);

  // Starts a tick's feedback at zero.
  void BeginTick() { feedback_ = Feedback{}; }
  const Feedback& feedback() const { return feedback_; }

  // Ends the tick before `next_epoch`: its slot drops the promotions made
  // kSlots epochs before it.
  void EndTick(uint32_t next_epoch);

  // The tick of `epoch` promoted `page`. A quarantined page's promotion is
  // also kept in quarantined_promotions().
  void Promoted(PageId page, uint32_t epoch);

  // The running tick demoted `page`: the §4.2.3 ping-pong signature when
  // the page was promoted within the window, this tick included. Reads the
  // ring only for a page in the recent set.
  void Demoted(PageId page);

  // Counts the DRAM-resident pages promoted within the window before
  // `epoch`, and those of them set in `touched` (WarmSet::touched()), into
  // feedback(), before the tick of `epoch` promotes. Visits only the words
  // of the recent set that hold a bit, and prunes the set to the window.
  // Returns the pages the set held: the pages it visited.
  uint64_t CountRecentPromotions(const PageAllocator& allocator,
                                 const std::vector<uint64_t>& touched, uint32_t epoch);

  // Records `page` as quarantined. Returns false when it already was.
  bool Quarantine(PageId page) { return quarantined_.insert(page).second; }
  uint64_t QuarantinedPages() const { return quarantined_.size(); }

  // Whether `page` is quarantined: one empty() load on healthy runs.
  bool IsQuarantined(PageId page) const {
    return !quarantined_.empty() && quarantined_.count(page) != 0;
  }
  // Every promotion of a page that was quarantined at the time, in order:
  // empty unless the daemon let a quarantined page through
  // (check::TieringInvariantViolations).
  const std::vector<PageId>& quarantined_promotions() const { return quarantined_promotions_; }

  // The pages the tick of `epoch` promoted, for one of the last kSlots
  // epochs, and the recent set: a superset of the ring's pages, bit for bit
  // the set a counting pass visits. For the audit and tests.
  const std::vector<uint64_t>& promoted_at(uint32_t epoch) const {
    return slots_[epoch % kSlots];
  }
  const std::vector<uint64_t>& recent() const { return recently_promoted_; }

 private:
  std::array<std::vector<uint64_t>, kSlots> slots_;
  // One bit per page id, set at promotion and cleared once the counting
  // pass finds no promotion of the page in the window: the union of the
  // slots and of the promotions aged out since the last count, so a count
  // and a demotion visit only pages promoted lately.
  std::vector<uint64_t> recently_promoted_;
  std::unordered_set<PageId> quarantined_;
  std::vector<PageId> quarantined_promotions_;
  Feedback feedback_;
};

// Per-page hotness: the heat column's one writer (sampled accesses,
// quarantine and decay) and the structures that let a tick visit only the
// pages that may be hot.
//
// The warm set is one bit per page id, a superset of the pages with heat >
// 0. Decay leaves heat 0 at exactly 0, so between accesses only warm pages
// change, and every daemon pass visits only them, in id order. Words with
// many bits set are dense: every page of them is handled, zero heat
// included, 64 at a time by masks in the candidate/cold-pool pass and by a
// straight sweep when the word catches up. RecordAccess sets a bit,
// RecordAccessRun a span's bits a word at a time. A catch-up clears the
// bit of every page it leaves at heat 0, and a pass that reads heat 0 on a
// sparse word's page clears its bit. Allocate's heat reset and
// quarantine's leave stale bits, which only cost a visit. Heat is assumed
// non-negative, with a finite, non-negative decay factor.
//
// Accesses also set a second bitset, touched(): the pages accessed since the
// last tick ended, which TieredMemory::EndTick clears (skipped ticks too).
// Recency is read only as that question (the mru-balancing filter and the
// promotion feedback), so one bit per page answers it.
//
// Decay is lazy and word-granular. decays_ counts the decays the daemon
// has made; word_decays_[w] those word w's heats have had. A word behind
// catches up (CatchUp) when its heats are next read or written: each of
// its pages gets the decays it missed, as the same sequential multiplies a
// per-tick sweep would have made. A tick's own reads see pre-decay heat,
// since the tick decays last. Heat(id) reads through the pending decays;
// Settle brings every word current.
//
// Each word also keeps bounds of its page slots' current heat: word_lo_[w]
// <= heat <= word_hi_[w] for every slot of word w whenever a tick scans. A
// dense word whose upper bound is below the candidate threshold and whose
// lower bound is above the cold pool's cut holds no page the scan could
// select, and is skipped whole, without catching up. The bounds change
// where heat does, with no pass of their own. Float multiplication and
// addition round monotonically, so a decay scales both bounds of every
// word and RecordAccessRun shifts those of the words it covers whole,
// exactly; it recomputes its two edge words, RecordAccess raises the upper
// bound and quarantine zeroes the lower. Allocation resets heat without
// the daemon, so a tick that sees one (by `pgalloc`, as for zero_floor_)
// first zeroes every lower bound. The others only loosen, and every
// catch-up recomputes its word's exact bounds.
class WarmSet {
 public:
  // Which low-tier pages a warm pass lists as promotion candidates: heat
  // >= min_heat (NaN lists none), touched since the last tick if
  // touched_only, and not quarantined. One value covers every
  // CandidateScan: a float min_heat rounded up from the double threshold
  // selects exactly the heats the double compare does.
  struct CandidateFilter {
    float min_heat = 0.0f;
    bool touched_only = false;
  };

  // Switches the allocator's heat column on (see TieredMemory). The
  // ledger's columns grow with the warm set's; its quarantine filters the
  // candidates.
  WarmSet(PageAllocator& allocator, PromotionLedger& ledger, float decay_factor,
          double sample_rate);

  // TieredMemory::RecordAccess and RecordAccessRun; both set touched bits.
  void RecordAccess(PageId page, uint64_t accesses);
  void RecordAccessRun(PageId first, uint64_t count, uint64_t accesses);

  // Ends a tick: no page has been touched since.
  void EndTick() { std::fill(touched_.begin(), touched_.end(), 0); }

  // TieredMemory::Heat and SettleHeat.
  float Heat(PageId page) const;
  void Settle();

  // Starts a tick: sizes the sets to every page slot and, after any
  // allocation since the last tick, restarts the zero walk at id 0 and
  // zeroes every lower bound.
  void BeginTick();

  // One decay of every page's heat: counts it in decays_ and scales both
  // bound arrays. The heats themselves decay when their words catch up.
  void Decay();

  // Quarantine's heat reset: `page` goes to heat 0 and its word's lower
  // bound to 0.
  void ResetHeat(PageId page);

  // A promotion moved `page` into DRAM, where its heat 0 would make it a
  // zero-heat DRAM page.
  void EnteredDram(PageId page) {
    if (allocator_.heat_column()[page] == 0.0f) {
      zero_floor_ = std::min(zero_floor_, page);
    }
  }

  // The warm pass of one tick: DRAM pages that may sort below the cut are
  // offered to `pool`, and the HottestFirstKeyOf keys of CXL pages passing
  // `filter` are appended to `hot` in id order. Dense words decide their 64
  // pages with masks from the residency bitsets and two vectorised heat
  // compares, or are skipped whole, still behind, when their heat bounds
  // leave both masks empty; every other word is brought current first.
  // Returns the number of DRAM pages offered, counting those the cut
  // turned away before the call.
  uint64_t ScanWarm(const CandidateFilter& filter, ColdPoolSelector& pool,
                    ArenaVector<ColdPoolSelector::Key>& hot);

  // Calls `visit(id)`, in id order from the word of `from` until it returns
  // false, for the pages this tick's warm pass left out: the clear bits of
  // sparse words, which hold heat 0 once the pass cleared their stale bits.
  template <typename Visit>
  void VisitCold(PageId from, Visit&& visit);

  // Whether the DRAM pages outside the warm set number at least `k`. Each
  // has heat 0, so then the `k` coldest DRAM pages by (heat, id) are the
  // `k` lowest-id zero-heat DRAM pages.
  bool ZeroHeatCovers(uint64_t k) const;

  // Offers `selector` the `count` lowest-id zero-heat DRAM pages this
  // tick's pass left out, which exist.
  void OfferZeroHeatDram(ColdPoolSelector& selector, uint64_t count);

  // Appends the `k` lowest-id zero-heat DRAM pages to `keys`, in id order,
  // which is key order: dense words whose lower bound is 0 by their heats
  // once brought current, from word 0, and sparse words from zero_floor_'s
  // by the warm bits this tick's pass left. ZeroHeatCovers(k) must hold.
  void TakeZeroHeatDram(uint64_t k, std::vector<ColdPoolSelector::Key>& keys);

  // pages_visited, pool_offers, dense_words_skipped and heat_catch_ups
  // since the last call.
  TickWork TakeWork() { return std::exchange(work_, TickWork{}); }

  // The warm bits, per-word heat bounds and decay counts, for
  // check::TieringInvariantViolations and tests.
  const std::vector<uint64_t>& bits() const { return warm_; }
  // The touched bits (see the class comment), as many words as bits().
  const std::vector<uint64_t>& touched() const { return touched_; }
  const std::vector<float>& word_lo() const { return word_lo_; }
  const std::vector<float>& word_hi() const { return word_hi_; }
  const std::vector<uint32_t>& word_decays() const { return word_decays_; }
  uint32_t decays() const { return decays_; }

 private:
  // Walks the warm set in id order: `dense(w)` for every dense word w,
  // `sparse(id)` for each set bit of a sparse word, brought current first,
  // whose bit clears when it returns false (heat read as 0). A dense word
  // whose `dense(w)` returns false (its catch-up cleared bits and left it
  // sparse) is walked as a sparse word.
  template <typename Dense, typename Sparse>
  void VisitWarm(Dense&& dense, Sparse&& sparse);

  // Brings word `w` current: the one place a word's pending decays reach
  // its heats. Every reader of a word's heats calls it first, and every
  // writer but quarantine, whose heat 0 no decay changes.
  void CatchUp(size_t w) {
    if (word_decays_[w] != decays_) {
      CatchUpWord(w);
    }
  }
  void CatchUpWord(size_t w);

  // Sizes the ledger's ring and recent set, the warm and touched sets, the
  // heat bounds and the decay counts to cover every page slot.
  void Grow();

  // Sets word `w`'s heat bounds to the least and greatest heat of its page
  // slots.
  void BoundWord(size_t w);

  PageAllocator& allocator_;
  PromotionLedger& ledger_;
  double sample_rate_;  // TieringConfig::hint_fault_sample_rate.
  HeatDecay decay_;
  std::vector<uint64_t> warm_;
  std::vector<uint64_t> touched_;
  std::vector<float> word_lo_;
  std::vector<float> word_hi_;
  std::vector<uint32_t> word_decays_;
  uint32_t decays_ = 0;
  // Where the walks for zero-heat DRAM pages start on sparse words: no
  // sparse word below it holds one. Dense words are not covered, so a
  // dense word below it may hold zero-heat DRAM pages (the zero-heat pool
  // walks dense words from word 0; the selector's pass offers them). Both
  // walks raise it to the first sparse-word page they take, so demoting
  // the lowest zero-heat pages does not leave a growing prefix to re-walk
  // (from id 0, the largest kv-hotpromote tick visits 13.6% of the page
  // slots instead of 8.3%). Whatever can make a page below it a zero-heat
  // DRAM page of a sparse word lowers it: a catch-up that clears bits (to
  // the word's lowest zero-heat DRAM page, which also covers a dense word
  // the clearing leaves sparse), quarantine, promoting a zero-heat page,
  // and placement changes made outside the daemon, which only allocation
  // makes (seen as a change in the allocator's `pgalloc` counter). The
  // warm-set tests fail if any of these is left out.
  PageId zero_floor_ = 0;
  uint64_t seen_pgalloc_ = 0;
  TickWork work_;
};

// Demotion cold pool: the ColdPoolSelector keys of the coldest DRAM pages
// in ascending (heat, id) order, built with each tick's one warm-set pass
// and consumed across the several demotion batches a single Tick makes
// (heat is constant within a tick, so the remaining entries stay the exact
// k-smallest of the shrinking DRAM set). It is built one of two ways. When
// the DRAM pages outside the warm set number at least k (every
// kv-hotpromote tick), the pool is the k lowest-id zero-heat DRAM pages,
// taken by one id walk with no selector or sort. Otherwise the pass offers
// the warm DRAM pages that may sort below the cut to a ColdPoolSelector,
// and the zero-heat pages it left out follow (most Spark ticks). Either way the buffer is reserved
// once at 2k keys, as the selector does. Invalidated at every tick start
// (decay and accesses change heat) and whenever a page enters DRAM whose
// (heat, id) sorts at or below the pool's floor: such a page would belong
// in the pool (a cheap test, and rare: promoted pages are hot by
// construction). An invalid or drained pool is refilled, its way picked
// the same.
class ColdPool {
 public:
  explicit ColdPool(const PageAllocator& allocator) : allocator_(allocator) {}

  // Fills the pool for demotion batches of `batch` pages, either way, by
  // the tick's warm pass over `warm` (WarmSet::ScanWarm, which appends the
  // CXL pages passing `filter` to `hot`), and resets its cursor. The pool
  // holds four batches of headroom (at least 4096 pages), capped at the
  // DRAM-resident count.
  void Fill(uint64_t batch, WarmSet& warm, const WarmSet::CandidateFilter& filter,
            ArenaVector<ColdPoolSelector::Key>& hot);

  void Invalidate() { valid_ = false; }

  // A page entered DRAM with (heat, id) key `key`.
  void EnteredDram(ColdPoolSelector::Key key) {
    if (valid_ && (keys_.empty() || key <= floor_)) {
      valid_ = false;
    }
  }

  // Whether the pool is valid and has `count` pages left.
  bool Holds(uint64_t count) const { return valid_ && keys_.size() - next_ >= count; }
  bool Drained() const { return next_ >= keys_.size(); }
  // The coldest page left; the pool must not be drained.
  PageId TakeColdest() { return ColdPoolSelector::IdOf(keys_[next_++]); }

  // pool_shrinks and sorted_entries since the last call.
  TickWork TakeWork() { return std::exchange(work_, TickWork{}); }

 private:
  const PageAllocator& allocator_;
  std::vector<ColdPoolSelector::Key> keys_;
  size_t next_ = 0;  // Consumption cursor.
  bool valid_ = false;
  ColdPoolSelector::Key floor_ = 0;  // The largest key, 0 when empty.
  TickWork work_;
};

// The daemon: each Tick asks the policy for a decision, runs the warm pass,
// promotes within the budget, demotes to make room and reports back.
class TieredMemory {
 public:
  // One daemon per allocator: `allocator` must not have had one before
  // (PageAllocator::TrackHeat asserts it), so every page starts at heat 0.
  TieredMemory(PageAllocator& allocator, TieringConfig config);

  // Feeds `accesses` real accesses to `page` into the (sampled) heat
  // counter and marks the page warm. Called by application models once per
  // simulation step per page group.
  void RecordAccess(PageId page, uint64_t accesses) { warm_.RecordAccess(page, accesses); }

  // The same as RecordAccess(id, accesses) for every id of
  // [first, first + count), in one straight pass over the columns and a
  // word at a time over the warm set: how a streamed window is recorded.
  void RecordAccessRun(PageId first, uint64_t count, uint64_t accesses) {
    warm_.RecordAccessRun(first, count, accesses);
  }

  // Runs one daemon interval covering `dt_seconds` of simulated time.
  struct TickResult : TickWork {
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
  uint64_t QuarantinedPages() const { return ledger_.QuarantinedPages(); }

  // The current heat of `page`: its column value with the decays its word
  // has pending applied, exactly as an eager per-tick decay leaves it.
  // Changes no state.
  float Heat(PageId page) const { return warm_.Heat(page); }

  // Brings every word current, so the allocator's heat column holds every
  // page's current heat until the next tick decays. For readers of the
  // whole column (Spark's access-weighted shares).
  void SettleHeat() { warm_.Settle(); }

  // The per-page state, for check::TieringInvariantViolations and tests.
  const WarmSet& warm() const { return warm_; }
  const PromotionLedger& ledger() const { return ledger_; }

  // Remaining ticks of promotion-failure backoff (tests/telemetry).
  int BackoffTicksRemaining() const { return backoff_ticks_remaining_; }

  double hot_threshold() const { return policy_->hot_threshold(); }
  const TieringConfig& config() const { return config_; }
  const PageAllocator& allocator() const { return allocator_; }

  // The active decision policy (the attached override, else the owned one).
  TieringPolicy& policy() { return *policy_; }
  const TieringPolicy& policy() const { return *policy_; }

 private:
  // Demotes up to `count` of the coldest DRAM pages to make room. Returns
  // pages actually demoted.
  uint64_t DemoteColdPages(uint64_t count);

  // A tick that neither scans nor decays: the daemon stalled (reason 0),
  // backed off after promotion failures (1) or its policy skipped (2).
  // Advances the clock and epoch, counts the reason and records its
  // kDaemonSkippedTick event when a fault window is attributable.
  TickResult SkipTick(TickResult result, double dt_seconds, int reason);

  // Ends a tick: advances the epoch and the clock by `dt_seconds`, clears
  // the touched bits and the ledger's slot for the next epoch, and adds the
  // owners' work counts into `result`.
  void EndTick(TickResult& result, double dt_seconds);

  // Appends one tick's worth of telemetry (no-op without a sink).
  void EmitTickTelemetry(const TickResult& result, double dt_seconds);

  // Appends this tick's structured events (page_promote / page_demote with
  // reason codes); no-op without a sink. `watermark_demoted` is the portion
  // of result.demoted_pages freed by the watermark branch rather than by
  // DRAM pressure inside the promotion loop.
  void EmitTickEvents(const TickResult& result, uint64_t watermark_demoted);

  PageAllocator& allocator_;
  TieringConfig config_;
  uint32_t epoch_ = 0;  // Ticks so far (the ledger's ring slots).

  // Decision policy: owned instance built from config_ at construction;
  // policy_ points at it unless Attach() supplied an override.
  std::unique_ptr<TieringPolicy> owned_policy_;
  TieringPolicy* policy_ = nullptr;

  // The per-page state. The ledger comes first: the warm set grows its
  // columns.
  PromotionLedger ledger_;
  WarmSet warm_;
  ColdPool cold_pool_;

  // Per-tick transients (candidate lists) bump-allocate here; Reset() at
  // each Tick() entry recycles the blocks, so steady-state ticks do no heap
  // allocation.
  Arena tick_arena_;

  // Telemetry (observational only).
  telemetry::MetricRegistry* telemetry_ = nullptr;
  telemetry::TraceBuffer::TrackId telemetry_track_ = 0;
  double sim_seconds_ = 0.0;  // Sum of Tick() dt_seconds.
  // Cached metric/series handles, resolved lazily at the first emitting tick
  // (so attaching a sink without ever ticking registers nothing).
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
  int promotion_failure_streak_ = 0;
  int backoff_ticks_remaining_ = 0;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_TIERING_H_
