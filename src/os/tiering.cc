#include "src/os/tiering.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "src/os/policy_registry.h"
#include "src/os/vmstat.h"
#include "src/util/units.h"

namespace cxl::os {

namespace {
// Promote-epoch stamps age out after this many ticks: a demotion (or a
// re-access check) further from the promotion than this no longer counts as
// migration-outcome feedback. Small enough that the signal tracks the
// current regime, large enough to span the heat-decay half-life.
constexpr uint32_t kPromoteStampWindowTicks = 8;

// Warm-set geometry. A word with kDenseWordBits or more bits set is dense.
// Every page of a dense word is handled alike, zero heat included: the
// candidate/cold-pool pass decides a word's 64 pages with vectorised
// compares and residency masks, and the decay sweeps them straight, which
// vectorises too. Sparse words are walked bit by bit, and a page found
// there at heat 0 leaves the set. Bit-by-bit walking of a nearly full word
// is far slower per page than the word at a time; a sparse word taken
// whole reads columns it need not touch.
constexpr PageId kWordBits = 64;
constexpr int kDenseWordBits = 16;
constexpr uint32_t kDenseRefreshTicks = 8;

uint64_t Bit(PageId id) { return uint64_t{1} << (id % kWordBits); }

// std::popcount is a dozen instructions without a hardware popcount in the
// target ISA, so full words, the common dense case, skip it.
int WarmBits(uint64_t word) {
  return word == ~uint64_t{0} ? static_cast<int>(kWordBits) : std::popcount(word);
}

// std::popcount by its SWAR steps, which stay inline: at the baseline ISA
// std::popcount is a library call, ~3x slower in a loop over every word.
uint64_t CountBits(uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555u;
  word = (word & 0x3333333333333333u) + ((word >> 2) & 0x3333333333333333u);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return (word * 0x0101010101010101u) >> 56;
}

// Whether `word`, the warm set's word `w`, is dense. Only words covering
// existing page slots count.
bool IsDense(uint64_t word, size_t w, uint64_t page_count) {
  return WarmBits(word) >= kDenseWordBits && (w + 1) * kWordBits <= page_count;
}

// End of the run of dense words starting at the dense word `w`.
size_t DenseRunEnd(const std::vector<uint64_t>& warm, size_t w, uint64_t page_count) {
  do {
    ++w;
  } while (w < warm.size() && IsDense(warm[w], w, page_count));
  return w;
}

// The smallest float >= `threshold`: for every float h, including +-inf
// and NaN, h >= threshold (compared as doubles) exactly when h >= the
// result. NaN stays NaN, which no heat reaches.
float CeilToFloat(double threshold) {
  if (threshold > std::numeric_limits<float>::max()) {
    return std::numeric_limits<float>::infinity();
  }
  if (threshold < -std::numeric_limits<float>::max()) {
    return threshold == -std::numeric_limits<double>::infinity()
               ? -std::numeric_limits<float>::infinity()
               : -std::numeric_limits<float>::max();
  }
  const float rounded = static_cast<float>(threshold);
  return static_cast<double>(rounded) < threshold
             ? std::nextafter(rounded, std::numeric_limits<float>::infinity())
             : rounded;
}

// One dense word's heat tests, as masks over its 64 pages.
struct HeatMasks {
  uint64_t below_cut;  // !(heat > cut): may pass the cold pool's (heat, id) cut.
  uint64_t candidate;  // heat >= min_heat.
};

// kLaneBit[j] is bit j of a 32-page half word.
constexpr std::array<uint32_t, 32> kLaneBit = [] {
  std::array<uint32_t, 32> bits{};
  for (size_t j = 0; j < bits.size(); ++j) {
    bits[j] = uint32_t{1} << j;
  }
  return bits;
}();

// Each 32-page half is two OR-reductions of lane bits under all-ones or
// all-zero compare masks, which GCC vectorises at the baseline ISA (GCC 12
// leaves a `cond ? bit : 0` spelling scalar). The compares are the scalar
// predicates, so NaN, subnormal and infinite operands select as they do.
HeatMasks CompareHeat(const float* heat, float cut, float min_heat) {
  uint64_t above = 0;
  uint64_t candidate = 0;
  for (size_t half = 0; half < kWordBits; half += kLaneBit.size()) {
    const float* h = heat + half;
    uint32_t a = 0;
    uint32_t b = 0;
    for (size_t j = 0; j < kLaneBit.size(); ++j) {
      a |= kLaneBit[j] & -static_cast<uint32_t>(h[j] > cut);
      b |= kLaneBit[j] & -static_cast<uint32_t>(h[j] >= min_heat);
    }
    above |= uint64_t{a} << half;
    candidate |= uint64_t{b} << half;
  }
  return {~above, candidate};
}

struct HeatBounds {
  float lo;
  float hi;
};

// The least and greatest of `count` heats. A full word folds to 16 and
// then 4 lanes of element-wise min and max, which GCC vectorises at the
// baseline ISA (a running min/max over the 64 stays scalar without
// -ffast-math).
HeatBounds BoundHeat(const float* heat, size_t count) {
  if (count == kWordBits) {
    std::array<float, 16> lo;
    std::array<float, 16> hi;
    for (size_t j = 0; j < 16; ++j) {
      const float* h = heat + j;
      lo[j] = std::min(std::min(h[0], h[16]), std::min(h[32], h[48]));
      hi[j] = std::max(std::max(h[0], h[16]), std::max(h[32], h[48]));
    }
    for (size_t j = 0; j < 4; ++j) {
      lo[j] = std::min(std::min(lo[j], lo[j + 4]), std::min(lo[j + 8], lo[j + 12]));
      hi[j] = std::max(std::max(hi[j], hi[j + 4]), std::max(hi[j + 8], hi[j + 12]));
    }
    return {std::min(std::min(lo[0], lo[1]), std::min(lo[2], lo[3])),
            std::max(std::max(hi[0], hi[1]), std::max(hi[2], hi[3]))};
  }
  HeatBounds out{heat[0], heat[0]};
  for (size_t i = 1; i < count; ++i) {
    out.lo = std::min(out.lo, heat[i]);
    out.hi = std::max(out.hi, heat[i]);
  }
  return out;
}
}  // namespace

const char* TieringConfig::PolicyName() const {
  return policy.empty() ? kHotPageSelectionPolicyName : policy.c_str();
}

TieredMemory::TieredMemory(PageAllocator& allocator, TieringConfig config)
    : allocator_(allocator), config_(std::move(config)) {
  // Pages the allocator already holds may carry heat from an earlier daemon:
  // start the warm set as their superset. A fresh allocator's heat is all
  // zero, which one vectorisable pass confirms.
  GrowPageSets();
  const float* heat_col = allocator_.heat_column();
  int any_heat = 0;
  for (PageId id = 0; id < allocator_.page_count(); ++id) {
    any_heat |= heat_col[id] != 0.0f;
  }
  for (PageId id = 0; any_heat != 0 && id < allocator_.page_count(); ++id) {
    if (heat_col[id] != 0.0f) {
      warm_[id / kWordBits] |= Bit(id);
    }
  }
  for (size_t w = 0; any_heat != 0 && w < warm_.size(); ++w) {
    BoundWord(w);
  }
  auto policy = PolicyRegistry::BuiltIns().Create(config_.PolicyName(), config_);
  if (!policy.ok()) {
    // Unknown name in config_.policy: callers taking user input validate
    // names against the registry up front, so this is a programming error —
    // fall back to hot page selection rather than crash release builds.
    assert(false && "unknown tiering policy name");
    policy = PolicyRegistry::BuiltIns().Create(kHotPageSelectionPolicyName, config_);
  }
  owned_policy_ = std::move(policy).value();
  policy_ = owned_policy_.get();
}

bool TieredMemory::IsTopTier(topology::NodeId node) const {
  return allocator_.IsDramNode(node);
}

void TieredMemory::RecordAccess(PageId page, uint64_t accesses) {
  // Hint-fault sampling: only a fraction of real accesses are observed.
  const double sampled = static_cast<double>(accesses) * config_.hint_fault_sample_rate;
  float& heat = allocator_.mutable_heat_column()[page];
  heat += static_cast<float>(sampled);
  allocator_.page(page).last_decay_epoch = epoch_;  // Recency stamp for the kRecency scan.
  allocator_.mutable_counters().numa_hint_faults += static_cast<uint64_t>(std::ceil(sampled));
  if (page / kWordBits >= warm_.size()) {
    GrowPageSets();
  }
  warm_[page / kWordBits] |= Bit(page);
  word_hi_[page / kWordBits] = std::max(word_hi_[page / kWordBits], heat);
}

void TieredMemory::RecordAccessRun(PageId first, uint64_t count, uint64_t accesses) {
  if (count == 0) {
    return;
  }
  const PageId last = first + count - 1;
  assert(last < allocator_.page_count());
  // Each page gets RecordAccess's float add and ceil, so the columns and
  // the integer fault count come out exactly as `count` calls leave them.
  const double sampled = static_cast<double>(accesses) * config_.hint_fault_sample_rate;
  const float add = static_cast<float>(sampled);
  const uint32_t epoch = epoch_;  // A local: the stores below cannot alias it.
  float* heat = allocator_.mutable_heat_column() + first;
  uint32_t* stamp = allocator_.mutable_epoch_column() + first;
  for (uint64_t i = 0; i < count; ++i) {
    heat[i] += add;
    stamp[i] = epoch;
  }
  allocator_.mutable_counters().numa_hint_faults +=
      count * static_cast<uint64_t>(std::ceil(sampled));
  if (last / kWordBits >= warm_.size()) {
    GrowPageSets();
  }
  const size_t first_word = first / kWordBits;
  const size_t last_word = last / kWordBits;
  const uint64_t head = ~uint64_t{0} << (first % kWordBits);
  const uint64_t tail = ~uint64_t{0} >> (kWordBits - 1 - last % kWordBits);
  BoundWord(first_word);
  if (first_word == last_word) {
    warm_[first_word] |= head & tail;
    return;
  }
  warm_[first_word] |= head;
  for (size_t w = first_word + 1; w < last_word; ++w) {
    warm_[w] = ~uint64_t{0};
    word_lo_[w] += add;
    word_hi_[w] += add;
  }
  warm_[last_word] |= tail;
  BoundWord(last_word);
}

void TieredMemory::GrowPageSets() {
  // The stamp column and the page sets trail page_count(), since pages are
  // created lazily by the allocator; new pages start unstamped (0 = never
  // promoted), cold and not recently promoted. Each grows in one step to
  // the current page count. Page ids must fit in the low 32 bits of a
  // ColdPoolSelector key; the largest region in the tree has 2^21 pages.
  assert(allocator_.page_count() <= (uint64_t{1} << 32));
  promote_epoch_.resize(allocator_.page_count(), 0);
  warm_.resize((allocator_.page_count() + kWordBits - 1) / kWordBits, 0);
  recently_promoted_.resize(warm_.size(), 0);
  // New slots hold heat 0. They are created only by allocation, after
  // which the next tick zeroes every lower bound, the word they extend
  // included.
  word_lo_.resize(warm_.size(), 0.0f);
  word_hi_.resize(warm_.size(), 0.0f);
}

void TieredMemory::BoundWord(size_t w) {
  const PageId base = w * kWordBits;
  const HeatBounds b = BoundHeat(allocator_.heat_column() + base,
                                 std::min<uint64_t>(kWordBits, allocator_.page_count() - base));
  word_lo_[w] = b.lo;
  word_hi_[w] = b.hi;
}

template <typename Dense, typename Sparse>
void TieredMemory::VisitWarm(Dense&& dense, Sparse&& sparse) {
  const uint64_t page_count = allocator_.page_count();
  uint64_t visited = 0;
  for (size_t w = 0; w < warm_.size();) {
    uint64_t keep = warm_[w];
    if (keep == 0) {
      ++w;
      continue;
    }
    if (IsDense(keep, w, page_count)) {
      const size_t run_end = DenseRunEnd(warm_, w, page_count);
      visited += (run_end - w) * kWordBits;
      for (; w < run_end; ++w) {
        dense(w);
      }
      continue;
    }
    visited += static_cast<uint64_t>(std::popcount(keep));
    for (uint64_t bits = keep; bits != 0; bits &= bits - 1) {
      const PageId id = w * kWordBits + static_cast<PageId>(std::countr_zero(bits));
      if (!sparse(id)) {
        keep &= ~Bit(id);
      }
    }
    warm_[w] = keep;
    ++w;
  }
  tick_pages_visited_ += visited;
}

uint64_t TieredMemory::ScanWarm(const CandidateFilter& filter, ColdPoolSelector& pool,
                                ArenaVector<ColdPoolSelector::Key>& hot) {
  const float* heat_col = allocator_.heat_column();
  const uint32_t* epoch_col = allocator_.epoch_column();
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  const uint64_t* cxl_bits = allocator_.cxl_bits().data();
  uint64_t offered_dram = 0;
  uint64_t offers = 0;
  uint64_t skipped = 0;
  // A CXL page whose heat passed the filter: the per-page tests left.
  const auto consider = [&](PageId id, float heat) {
    if ((!filter.this_epoch_only || epoch_col[id] == epoch_) && !IsQuarantined(id)) {
      hot.push_back(HottestFirstKeyOf(heat, id));
    }
  };
  VisitWarm(
      [&](size_t w) {
        // Every page of a dense word, zero heat included: a page with heat
        // 0 sorts first in the pool and is a candidate only when the
        // filter admits it. Only DRAM pages that may pass the cut reach
        // Offer, and only CXL pages passing the heat test are considered.
        const uint64_t dram = dram_bits[w];
        offered_dram += static_cast<uint64_t>(std::popcount(dram));
        // Bounds that put every page above the cut and below min_heat
        // leave both masks empty.
        if (!(word_hi_[w] >= filter.min_heat) && word_lo_[w] > pool.cut_heat()) {
          ++skipped;
          return;
        }
        const float* heat = heat_col + w * kWordBits;
        const PageId base = w * kWordBits;
        const HeatMasks masks = CompareHeat(heat, pool.cut_heat(), filter.min_heat);
        for (uint64_t bits = dram & masks.below_cut; bits != 0; bits &= bits - 1) {
          const int j = std::countr_zero(bits);
          ++offers;
          pool.Offer(ColdPoolSelector::KeyOf(heat[j], base + static_cast<PageId>(j)));
        }
        for (uint64_t bits = cxl_bits[w] & masks.candidate; bits != 0; bits &= bits - 1) {
          const int j = std::countr_zero(bits);
          consider(base + static_cast<PageId>(j), heat[j]);
        }
      },
      [&](PageId id) {
        const float heat = heat_col[id];
        if (heat == 0.0f) {
          return false;
        }
        if ((dram_bits[id / kWordBits] & Bit(id)) != 0) {
          ++offered_dram;
          if (heat <= pool.cut_heat()) {
            ++offers;
            pool.Offer(ColdPoolSelector::KeyOf(heat, id));
          }
        } else if ((cxl_bits[id / kWordBits] & Bit(id)) != 0 && heat >= filter.min_heat) {
          consider(id, heat);
        }
        return true;
      });
  tick_pool_offers_ += offers;
  tick_dense_words_skipped_ += skipped;
  return offered_dram;
}

template <typename Visit>
void TieredMemory::VisitCold(PageId from, Visit&& visit) {
  const uint64_t page_count = allocator_.page_count();
  uint64_t visited = 0;
  for (size_t w = from / kWordBits; w < warm_.size(); ++w) {
    if (IsDense(warm_[w], w, page_count)) {
      continue;  // The pass handed over every id of a dense word.
    }
    uint64_t bits = ~warm_[w];
    if (page_count - w * kWordBits < kWordBits) {
      bits &= Bit(page_count) - 1;  // Slots past page_count() do not exist.
    }
    for (; bits != 0; bits &= bits - 1) {
      ++visited;
      if (!visit(w * kWordBits + static_cast<PageId>(std::countr_zero(bits)))) {
        tick_pages_visited_ += visited;
        return;
      }
    }
  }
  tick_pages_visited_ += visited;
}

void TieredMemory::DecayWarm() {
  float* heat_col = allocator_.mutable_heat_column();
  const float decay = static_cast<float>(config_.heat_decay);
  const uint64_t page_count = allocator_.page_count();
  // Finding the zeros costs the dense sweep ~50%, so dense words look for
  // them only every kDenseRefreshTicks-th decay.
  const bool refresh = epoch_ % kDenseRefreshTicks == 0;
  uint64_t visited = 0;
  bool dense_seen = false;
  for (size_t w = 0; w < warm_.size();) {
    uint64_t bits = warm_[w];
    if (bits == 0) {
      ++w;
      continue;
    }
    if (IsDense(bits, w, page_count)) {
      if (!dense_seen) {
        // Zeros reached in dense words go unseen: keep the zero walk's
        // floor at or below every dense run.
        dense_seen = true;
        zero_floor_ = std::min<PageId>(zero_floor_, w * kWordBits);
      }
      const size_t run_end = DenseRunEnd(warm_, w, page_count);
      visited += (run_end - w) * kWordBits;
      if (!refresh) {
        // A straight, vectorisable sweep. Unmarked ids hold exactly 0,
        // which the multiply keeps.
        for (PageId id = w * kWordBits; id < run_end * kWordBits; ++id) {
          heat_col[id] *= decay;
        }
        for (; w < run_end; ++w) {
          word_lo_[w] *= decay;
          word_hi_[w] *= decay;
        }
        continue;
      }
      for (; w < run_end; ++w) {
        // The same sweep word by word, and a word holding a 0 afterwards
        // has its bits recomputed: dense words shed cold pages too. Each
        // word's bounds are recomputed exactly.
        float* word_heat = heat_col + w * kWordBits;
        int any_zero = 0;
        for (PageId j = 0; j < kWordBits; ++j) {
          const float heat = word_heat[j] * decay;
          word_heat[j] = heat;
          any_zero |= heat == 0.0f;
        }
        if (any_zero != 0) {
          uint64_t keep = 0;
          for (PageId j = 0; j < kWordBits; ++j) {
            keep |= uint64_t{word_heat[j] != 0.0f} << j;
          }
          warm_[w] = keep;
        }
        BoundWord(w);
      }
      continue;
    }
    visited += static_cast<uint64_t>(std::popcount(bits));
    word_lo_[w] *= decay;
    word_hi_[w] *= decay;
    for (; bits != 0; bits &= bits - 1) {
      const PageId id = w * kWordBits + static_cast<PageId>(std::countr_zero(bits));
      heat_col[id] *= decay;
      if (heat_col[id] == 0.0f) {
        warm_[w] &= ~Bit(id);
        zero_floor_ = std::min(zero_floor_, id);
      }
    }
    ++w;
  }
  tick_pages_visited_ += visited;
}

void TieredMemory::CountRecentPromotions() {
  // In id order, like the warm passes; a page leaves the set once its
  // stamp ages out of the window.
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  const uint32_t* epoch_col = allocator_.epoch_column();
  for (size_t w = 0; w < recently_promoted_.size(); ++w) {
    for (uint64_t bits = recently_promoted_[w]; bits != 0; bits &= bits - 1) {
      const PageId id = w * kWordBits + static_cast<PageId>(std::countr_zero(bits));
      ++tick_pages_visited_;
      const uint32_t age = epoch_ - (promote_epoch_[id] - 1);
      if (age > kPromoteStampWindowTicks) {
        recently_promoted_[w] &= ~Bit(id);  // Aged out of the window.
      } else if (age >= 1 && (dram_bits[w] & Bit(id)) != 0) {
        ++tick_recent_promoted_;
        if (epoch_col[id] == epoch_) {
          ++tick_recent_promoted_hot_;
        }
      }
    }
  }
}

uint64_t TieredMemory::LowTierPages() const {
  uint64_t total = 0;
  for (const auto& n : allocator_.platform().nodes()) {
    if (n.kind == topology::NodeKind::kCxl) {
      total += allocator_.UsedPages(n.id);
    }
  }
  return total;
}

ColdPoolSelector::ColdPoolSelector(std::vector<Key>& pool, uint64_t k)
    : pool_(pool),
      k_(k),
      // Before the first cut every key is accepted: the largest is
      // KeyOf(+inf, 2^32 - 1). With k = 0 nothing sorts below 0.
      cut_(k == 0 ? 0 : std::numeric_limits<Key>::max()),
      cut_heat_(k == 0 ? -std::numeric_limits<float>::infinity()
                       : std::numeric_limits<float>::infinity()) {
  pool_.clear();
  // The buffer peaks at 2k entries. One allocation up front (a no-op once
  // the daemon's reused buffer is that large) replaces a chain of doubling
  // reallocations, whose freed blocks slowed the process's later
  // allocations: Spark cell set-up ran ~15% slower with them.
  pool_.reserve(2 * k);
}

void ColdPoolSelector::Shrink() {
  const auto kth = pool_.begin() + static_cast<std::ptrdiff_t>(k_ - 1);
  std::nth_element(pool_.begin(), kth, pool_.end());
  cut_ = *kth;
  cut_heat_ = HeatOf(cut_);
  pool_.resize(k_);
  ++shrinks_;
}

void ColdPoolSelector::Finish() {
  if (pool_.size() > k_) {
    std::nth_element(pool_.begin(), pool_.begin() + static_cast<std::ptrdiff_t>(k_),
                     pool_.end());
    pool_.resize(k_);
  }
  std::sort(pool_.begin(), pool_.end());  // Coldest first; keys are distinct.
}

uint64_t TieredMemory::ColdPoolSize(uint64_t batch) const {
  return std::min<uint64_t>(std::max<uint64_t>(4 * batch, 4096),
                            allocator_.DramResidentCount());
}

void TieredMemory::InstallColdPool(ColdPoolSelector& selector, uint64_t k,
                                   uint64_t offered_dram) {
  // The zero-heat DRAM pages left out of the pass sort below every warm
  // page, by id. Their count is exact, so the walk offering them stops at
  // the last one that can make the pool.
  uint64_t wanted = std::min(k, allocator_.DramResidentCount() - offered_dram);
  if (wanted > 0) {
    tick_pool_offers_ += wanted;
    const uint64_t* dram_bits = allocator_.dram_bits().data();
    PageId first = kInvalidPage;
    VisitCold(zero_floor_, [&](PageId id) {
      if ((dram_bits[id / kWordBits] & Bit(id)) != 0) {
        first = std::min(first, id);
        selector.Offer(ColdPoolSelector::KeyOf(0.0f, id));
        --wanted;
      }
      return wanted > 0;
    });
    assert(wanted == 0);
    // The walk found none below its first one. The pages this tick demotes
    // from the pool become CXL pages the next walk starts at and skips.
    zero_floor_ = first;
  }
  selector.Finish();
  tick_pool_shrinks_ += selector.shrinks();
  tick_sorted_entries_ += cold_pool_.size();
  cold_pool_next_ = 0;
  cold_pool_valid_ = true;
  cold_pool_floor_ = cold_pool_.empty() ? 0 : cold_pool_.back();
}

bool TieredMemory::ZeroHeatCovers(uint64_t k) const {
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  uint64_t warm_dram = 0;
  for (size_t w = 0; w < warm_.size(); ++w) {
    warm_dram += CountBits(warm_[w] & dram_bits[w]);
  }
  return allocator_.DramResidentCount() - warm_dram >= k;
}

void TieredMemory::InstallZeroHeatPool(uint64_t k) {
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  const float* heat_col = allocator_.heat_column();
  const uint64_t page_count = allocator_.page_count();
  const size_t floor_word = zero_floor_ / kWordBits;
  // ColdPoolSelector's one allocation: a pool grown key by key through
  // doubling reallocations leaves freed blocks that slow the process's
  // later allocations (kv-hotpromote set-up ran ~2x slower with them).
  cold_pool_.clear();
  cold_pool_.reserve(2 * k);
  PageId first_sparse = kInvalidPage;
  uint64_t visited = 0;
  for (size_t w = 0; w < warm_.size() && cold_pool_.size() < k; ++w) {
    uint64_t zero = 0;
    if (IsDense(warm_[w], w, page_count)) {
      if (word_lo_[w] > 0.0f) {
        continue;  // Every page of the word is above heat 0.
      }
      visited += kWordBits;
      zero = dram_bits[w] &
             CompareHeat(heat_col + w * kWordBits, 0.0f, std::numeric_limits<float>::quiet_NaN())
                 .below_cut;
    } else if (w >= floor_word) {
      // The pass left a sparse word's bit set only at heat > 0.
      zero = dram_bits[w] & ~warm_[w];
      if (zero != 0 && first_sparse == kInvalidPage) {
        first_sparse = w * kWordBits + static_cast<PageId>(std::countr_zero(zero));
      }
    }
    for (; zero != 0 && cold_pool_.size() < k; zero &= zero - 1) {
      ++visited;
      cold_pool_.push_back(ColdPoolSelector::KeyOf(
          0.0f, w * kWordBits + static_cast<PageId>(std::countr_zero(zero))));
    }
  }
  assert(cold_pool_.size() == k);
  tick_pages_visited_ += visited;
  if (first_sparse != kInvalidPage) {
    // As in InstallColdPool: no sparse word below it holds a zero-heat
    // DRAM page.
    zero_floor_ = first_sparse;
  }
  cold_pool_next_ = 0;
  cold_pool_valid_ = true;
  cold_pool_floor_ = cold_pool_.empty() ? 0 : cold_pool_.back();
}

void TieredMemory::BuildColdPool(uint64_t k) {
  // The tick's pass without candidates. The k-smallest set does not depend
  // on the order pages are offered in.
  const bool zero_heat = ZeroHeatCovers(k);
  ColdPoolSelector selector(cold_pool_, zero_heat ? 0 : k);
  ArenaVector<ColdPoolSelector::Key> no_candidates{
      ArenaAllocator<ColdPoolSelector::Key>(&tick_arena_)};
  const uint64_t offered_dram = ScanWarm(
      CandidateFilter{std::numeric_limits<float>::quiet_NaN(), false}, selector, no_candidates);
  if (zero_heat) {
    InstallZeroHeatPool(k);
  } else {
    InstallColdPool(selector, k, offered_dram);
  }
}

uint64_t TieredMemory::DemoteColdPages(uint64_t count) {
  // Find a demotion target (CXL node with space).
  const auto& platform = allocator_.platform();
  auto pick_cxl = [&]() -> topology::NodeId {
    topology::NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform.nodes()) {
      if (n.kind == topology::NodeKind::kCxl && allocator_.FreePages(n.id) > best_free) {
        best_free = allocator_.FreePages(n.id);
        best = n.id;
      }
    }
    return best;
  };

  // Heat is constant within a tick and every page the pool loses to a
  // demotion leaves DRAM with it, so the pool's unconsumed prefix remains
  // the exact k-smallest of the current DRAM set — one scan amortizes over
  // the several demotion batches a tick issues while promoting. (Pages that
  // *enter* DRAM mid-tick invalidate the pool if they would sort into it;
  // see the promotion loop.) Built with headroom so the rescan is rare.
  const uint64_t want =
      std::min<uint64_t>(count, allocator_.DramResidentCount());
  if (want == 0) {
    return 0;
  }
  if (!cold_pool_valid_ || cold_pool_.size() - cold_pool_next_ < want) {
    BuildColdPool(ColdPoolSize(count));
  }

  uint64_t demoted = 0;
  for (uint64_t i = 0; i < want && cold_pool_next_ < cold_pool_.size(); ++i) {
    const PageId id = ColdPoolSelector::IdOf(cold_pool_[cold_pool_next_]);
    const topology::NodeId target = pick_cxl();
    if (target < 0) {
      ++allocator_.mutable_counters().migrate_failed;
      break;
    }
    ++cold_pool_next_;
    if (allocator_.MovePage(id, target).ok()) {
      ++demoted;
      ++allocator_.mutable_counters().pgdemote;
      // §4.2.3 ping-pong signature: this page was promoted within the stamp
      // window and is already being demoted again. Observational only —
      // feeds TickObservation, never the demotion choice itself.
      const uint32_t stamp = promote_epoch_[id];
      if (stamp != 0 && epoch_ - (stamp - 1) <= kPromoteStampWindowTicks) {
        ++tick_ping_pong_;
      }
    }
  }
  return demoted;
}

TieredMemory::TickResult TieredMemory::Tick(double dt_seconds) {
  TickResult result;
  result.hot_threshold = policy_->hot_threshold();

  GrowPageSets();
  tick_pages_visited_ = 0;
  tick_pool_offers_ = 0;
  tick_pool_shrinks_ = 0;
  tick_sorted_entries_ = 0;
  tick_dense_words_skipped_ = 0;
  // Pages enter DRAM outside the daemon only by allocation, at any id and
  // with heat 0: after any, the zero walk starts again from id 0, and no
  // word's lower bound is above 0.
  if (allocator_.counters().pgalloc != seen_pgalloc_) {
    seen_pgalloc_ = allocator_.counters().pgalloc;
    zero_floor_ = 0;
    std::fill(word_lo_.begin(), word_lo_.end(), 0.0f);
  }

  // Heat changed since the previous tick (decay, sampled accesses), so last
  // tick's cold pool no longer reflects the (heat, id) order.
  cold_pool_valid_ = false;

  // Degraded-path gates. Both branches leave page state untouched: a wedged
  // daemon thread neither scans nor decays, and a backed-off daemon sits out
  // the tick after repeated promotion failures. Unreachable without an
  // enabled injector, so healthy runs are bit-for-bit unchanged. These run
  // before the policy is consulted — a wedged kernel thread does not make
  // decisions.
  if (faults_ != nullptr && faults_->enabled()) {
    if (faults_->DaemonStalled()) {
      sim_seconds_ += dt_seconds;
      ++epoch_;
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("tiering.stalled_ticks").Increment();
        // A stall window is active (DaemonStalled), so the id is valid.
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
                .WithWindow(faults_->ActiveWindowOf(fault::FaultType::kDaemonStall))
                .WithReason(0));
      }
      return result;
    }
    if (backoff_ticks_remaining_ > 0) {
      --backoff_ticks_remaining_;
      sim_seconds_ += dt_seconds;
      ++epoch_;
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("tiering.backoff_ticks").Increment();
        const int32_t window = faults_->AttributedWindow();
        if (window != telemetry::kNoWindow) {
          telemetry_->events().Record(
              telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
                  .WithWindow(window)
                  .WithReason(1));
        }
      }
      return result;
    }
  }

  const auto& platform = allocator_.platform();
  const double page_bytes = static_cast<double>(allocator_.page_bytes());

  // All of this tick's transient lists live in the arena; recycling the
  // blocks here keeps steady-state ticks heap-free.
  tick_arena_.Reset();

  // Base promotion budget from the rate limit (MB/s, decimal, as in the
  // kernel). The policy scales or ignores it (TPP promotes unboundedly).
  const double budget_bytes = MbpsToBytesPerSec(config_.promote_rate_limit_mbps) * dt_seconds;
  const double budget_pages_d = budget_bytes / page_bytes;
  const uint64_t base_budget_pages =
      budget_pages_d >= static_cast<double>(std::numeric_limits<uint64_t>::max())
          ? std::numeric_limits<uint64_t>::max()
          : static_cast<uint64_t>(budget_pages_d);

  TickContext ctx;
  ctx.dt_seconds = dt_seconds;
  ctx.base_budget_pages = base_budget_pages;
  ctx.dram_free_fraction = allocator_.DramFreeFraction();
  if (faults_ != nullptr && faults_->enabled()) {
    ctx.link_degraded = faults_->LinkDegraded();
    ctx.cxl_latency_factor = faults_->CxlLatencyFactor();
  }
  const TickDecision decision = policy_->Decide(ctx);
  if (decision.skip_tick) {
    // The policy's own backoff (e.g. adaptive feedback sitting out a
    // degraded-link window): same no-scan/no-decay semantics as the
    // daemon's promotion-failure backoff, with its own counter and skip
    // reason. The event only records when a fault window is attributable —
    // the diagnosis layer requires every degradation response to join back
    // to a cause.
    sim_seconds_ += dt_seconds;
    ++epoch_;
    if (telemetry_ != nullptr) {
      telemetry_->GetCounter("tiering.policy_backoff_ticks").Increment();
      const int32_t window = (faults_ != nullptr && faults_->enabled())
                                 ? faults_->AttributedWindow()
                                 : telemetry::kNoWindow;
      if (window != telemetry::kNoWindow) {
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
                .WithWindow(window)
                .WithReason(2));
      }
    }
    return result;
  }
  const uint64_t budget_pages = decision.budget_pages;
  // Cold pages freed per demotion call; the cold pool holds a few batches.
  const uint64_t demote_batch = std::clamp<uint64_t>(budget_pages / 8, 16, 4096);

  // Migration-outcome instrumentation for this tick (observational only).
  tick_ping_pong_ = 0;
  tick_recent_promoted_ = 0;
  tick_recent_promoted_hot_ = 0;

  // Gather promotion candidates on the low tier. Quarantined pages are
  // never candidates.
  const float* heat_col = allocator_.heat_column();
  ArenaVector<ColdPoolSelector::Key> hot{ArenaAllocator<ColdPoolSelector::Key>(&tick_arena_)};
  if (allocator_.CxlResidentCount() > 0) {
    // One pass over the warm set per tick, in id order, whatever the scan
    // kind: CXL pages are tested as promotion candidates and DRAM pages feed
    // the demotion cold pool (the configs that tick the daemon over-commit
    // DRAM, so the promotion loop below demotes almost every tick).
    // Candidates are appended in id order. With nothing resident on CXL
    // there is nothing to promote and nothing the pool is for; skip. When
    // zero-heat DRAM pages cover the pool, the pass offers it nothing.
    const uint64_t pool_size = ColdPoolSize(demote_batch);
    const bool zero_heat = ZeroHeatCovers(pool_size);
    ColdPoolSelector pool(cold_pool_, zero_heat ? 0 : pool_size);
    CandidateFilter filter;
    switch (decision.scan) {
      case CandidateScan::kHotnessRanked:
        // Heat >= the double threshold. Rounding the threshold up to a
        // float keeps that exact: a float heat reaches the threshold
        // exactly when it reaches the smallest float at or above it.
        // Only this scan feeds the promotion-outcome observation.
        CountRecentPromotions();
        filter.min_heat = CeilToFloat(decision.hot_threshold);
        break;
      case CandidateScan::kRecency:
        // MRU balancing: everything touched since the last scan qualifies,
        // in scan order — no hotness ranking. This is precisely why the
        // earlier patch "may not accurately identify high-demand pages"
        // (§2.3): the budget is spent on recently-touched pages regardless
        // of their heat. Heat > 0 is heat >= the smallest subnormal.
        filter.min_heat = std::numeric_limits<float>::denorm_min();
        filter.this_epoch_only = true;
        break;
      case CandidateScan::kSecondAccess:
        // TPP-like: second observed access promotes. With the default
        // sampling rate a page needs ~2 sampled hits; accumulated heat >= 2
        // approximates the active-list check. No ordering, no rate limiting
        // (see below).
        filter.min_heat = 2.0f;
        break;
    }
    const uint64_t offered_dram = ScanWarm(filter, pool, hot);
    // A threshold at or below 0 also admits the zero-heat CXL pages the
    // pass left out.
    if (decision.scan == CandidateScan::kHotnessRanked && 0.0 >= decision.hot_threshold) {
      const uint64_t* cxl_bits = allocator_.cxl_bits().data();
      VisitCold(0, [&](PageId id) {
        if ((cxl_bits[id / kWordBits] & Bit(id)) != 0 && !IsQuarantined(id)) {
          hot.push_back(HottestFirstKeyOf(0.0f, id));
        }
        return true;
      });
    }
    if (zero_heat) {
      InstallZeroHeatPool(pool_size);
    } else {
      InstallColdPool(pool, pool_size, offered_dram);
    }
  }
  if (decision.scan == CandidateScan::kHotnessRanked) {
    // Hottest first, page id breaking heat ties: the rate-limit budget
    // truncates this list, so tie order decides *which* pages promote —
    // without the tie-break that choice is implementation-defined
    // (caught by cxl_lint CXL-D007). The tie-break lives in the key's low
    // bits, so the keys are distinct and a plain sort is exact.
    std::sort(hot.begin(), hot.end());
    tick_sorted_entries_ += hot.size();
  }
  result.candidates = hot.size();
  allocator_.mutable_counters().pgpromote_candidate += hot.size();

  auto pick_dram = [&]() -> topology::NodeId {
    topology::NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform.nodes()) {
      if (n.kind == topology::NodeKind::kDram && allocator_.FreePages(n.id) > best_free) {
        best_free = allocator_.FreePages(n.id);
        best = n.id;
      }
    }
    return best;
  };

  uint64_t promoted = 0;
  bool promotion_failed = false;
  for (const ColdPoolSelector::Key key : hot) {
    const PageId id = ColdPoolSelector::IdOf(key);
    if (promoted >= budget_pages) {
      allocator_.mutable_counters().promote_rate_limited += hot.size() - promoted;
      break;
    }
    topology::NodeId target = pick_dram();
    if (target < 0) {
      // DRAM full: demote cold pages to make room (kswapd-style), which
      // consumes migration bandwidth too. Demote in small batches.
      const uint64_t freed = DemoteColdPages(demote_batch);
      result.demoted_pages += freed;
      result.migrated_bytes += static_cast<double>(freed) * page_bytes;
      target = pick_dram();
      if (target < 0) {
        promotion_failed = true;
        break;  // Machine genuinely full.
      }
    }
    if (allocator_.MovePage(id, target).ok()) {
      ++promoted;
      ++allocator_.mutable_counters().pgpromote_success;
      result.migrated_bytes += page_bytes;
      promote_epoch_[id] = epoch_ + 1;  // Stamp; 0 is reserved for "never".
      recently_promoted_[id / kWordBits] |= Bit(id);
      if (heat_col[id] == 0.0f) {
        zero_floor_ = std::min(zero_floor_, id);  // A zero-heat DRAM page now.
      }
      // A page entering DRAM at or below the cold pool's floor belongs in
      // the pool — drop it so the next demotion batch rescans. Promoted
      // pages are hot by construction, so this almost never fires.
      if (cold_pool_valid_ &&
          (cold_pool_.empty() || ColdPoolSelector::KeyOf(heat_col[id], id) <= cold_pool_floor_)) {
        cold_pool_valid_ = false;
      }
    } else {
      promotion_failed = true;
    }
  }
  result.promoted_pages = promoted;

  // Repeated promotion failure on the degraded path arms exponential
  // backoff: 2, 4, 8, ... skipped ticks up to the tunable cap, so a daemon
  // that cannot make progress stops burning scan cycles and migration
  // bandwidth against a full or failing tier.
  if (faults_ != nullptr && faults_->enabled()) {
    if (promotion_failed) {
      ++promotion_failure_streak_;
      const int cap = std::max(1, faults_->tunables().backoff_max_ticks);
      const int shift = std::min(promotion_failure_streak_, 16);
      backoff_ticks_remaining_ = std::min(cap, 1 << shift);
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("tiering.promotion_failures").Increment();
        const int32_t window = faults_->AttributedWindow();
        if (window != telemetry::kNoWindow) {
          telemetry_->events().Record(
              telemetry::Event(telemetry::EventKind::kPromotionBackoffArmed,
                               SecToMs(sim_seconds_ + dt_seconds))
                  .WithWindow(window)
                  .WithA(backoff_ticks_remaining_)
                  .WithB(promotion_failure_streak_));
        }
      }
    } else {
      promotion_failure_streak_ = 0;
    }
  }

  // Demotion under DRAM pressure even without promotions (watermark).
  uint64_t watermark_demoted = 0;
  if (allocator_.DramFreeFraction() < config_.demotion_free_watermark) {
    const uint64_t freed = DemoteColdPages(demote_batch);
    watermark_demoted = freed;
    result.demoted_pages += freed;
    result.migrated_bytes += static_cast<double>(freed) * page_bytes;
  }

  // Close the loop: report the tick's outcome to the policy. This is where
  // the hot-page-selection threshold adjustment now lives (it ran at this
  // exact point in the pre-policy daemon, after the watermark demotions).
  TickObservation obs;
  obs.dt_seconds = dt_seconds;
  obs.candidates = result.candidates;
  obs.promoted_pages = result.promoted_pages;
  obs.demoted_pages = result.demoted_pages;
  obs.budget_pages = budget_pages;
  obs.migrated_bytes = result.migrated_bytes;
  obs.rate_limit_saturation =
      (budget_pages > 0 && budget_pages != std::numeric_limits<uint64_t>::max())
          ? static_cast<double>(promoted) / static_cast<double>(budget_pages)
          : 0.0;
  obs.promotion_failed = promotion_failed;
  obs.dram_free_fraction = allocator_.DramFreeFraction();
  obs.recent_promoted = tick_recent_promoted_;
  obs.recent_promoted_hot = tick_recent_promoted_hot_;
  obs.ping_pong_demotions = tick_ping_pong_;
  obs.link_degraded = ctx.link_degraded;
  obs.cxl_latency_factor = ctx.cxl_latency_factor;
  policy_->Observe(obs);
  result.hot_threshold = policy_->hot_threshold();

  // Decay heat for the next interval. Only warm pages hold heat != 0, so
  // multiplying them leaves the column bit for bit where a sweep of every
  // slot would: freed slots included, whose stale values allocation resets.
  DecayWarm();
  ++epoch_;

  result.pages_visited = tick_pages_visited_;
  result.pool_offers = tick_pool_offers_;
  result.pool_shrinks = tick_pool_shrinks_;
  result.sorted_entries = tick_sorted_entries_;
  result.dense_words_skipped = tick_dense_words_skipped_;
  sim_seconds_ += dt_seconds;
  EmitTickTelemetry(result, dt_seconds);
  EmitTickEvents(result, watermark_demoted);
  return result;
}

void TieredMemory::Attach(const Observers& observers) {
  if (observers.telemetry != telemetry_) {
    telemetry_ = observers.telemetry;
    // Cached handles point into the previous sink; re-resolve on first emit.
    handles_ = TickTelemetryHandles{};
    if (telemetry_ != nullptr) {
      telemetry_track_ = telemetry_->trace().Track("promotion-daemon");
    }
  }
  faults_ = observers.faults;
  policy_ = observers.policy != nullptr ? observers.policy : owned_policy_.get();
}

bool TieredMemory::QuarantinePage(PageId page) {
  if (page == kInvalidPage || page >= allocator_.page_count()) {
    return false;
  }
  if (!quarantined_.emplace(page, epoch_).second) {
    return false;  // Already quarantined.
  }
  // The heat reset (and possible eviction below) perturbs the (heat, id)
  // order the demotion pool was built on.
  cold_pool_valid_ = false;
  allocator_.mutable_heat_column()[page] = 0.0f;  // Its warm bit goes stale.
  if (page / kWordBits >= warm_.size()) {
    GrowPageSets();
  }
  word_lo_[page / kWordBits] = 0.0f;
  zero_floor_ = std::min(zero_floor_, page);
  const topology::NodeId node = allocator_.NodeOf(page);
  if (node >= 0 && IsTopTier(node)) {
    // Evict the poisoned page from the hot tier: it must not occupy DRAM
    // the daemon would otherwise give to healthy hot pages.
    const auto& platform = allocator_.platform();
    topology::NodeId target = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform.nodes()) {
      if (n.kind == topology::NodeKind::kCxl && allocator_.FreePages(n.id) > best_free) {
        best_free = allocator_.FreePages(n.id);
        target = n.id;
      }
    }
    if (target >= 0 && allocator_.MovePage(page, target).ok()) {
      ++allocator_.mutable_counters().pgdemote;
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->GetCounter("tiering.quarantined_pages").Increment();
    // Stamped on the fault clock when one is attached (quarantine happens
    // mid-epoch, triggered by the caller's poison sample).
    const double t_ms = (faults_ != nullptr && faults_->enabled()) ? SecToMs(faults_->now_s())
                                                                   : SecToMs(sim_seconds_);
    const int32_t window =
        (faults_ != nullptr && faults_->enabled())
            ? faults_->ActiveWindowOf(fault::FaultType::kPoisonedCacheline)
            : telemetry::kNoWindow;
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPageDemote, t_ms)
            .WithWindow(window)
            .WithReason(2)
            .WithA(1.0)
            .WithB(BytesToMB(allocator_.page_bytes())));
  }
  return true;
}

void TieredMemory::EmitTickTelemetry(const TickResult& result, double dt_seconds) {
  if (telemetry_ == nullptr || dt_seconds <= 0.0) {
    return;
  }
  // Resolve all handles once, at the first emitting tick — every subsequent
  // tick appends through the cached pointers with no string lookups. Lazy so
  // a sink that never sees a tick registers nothing (as before).
  if (!handles_.attached) {
    telemetry::Timeline& timeline = telemetry_->timeline();
    handles_.hot_threshold = &timeline.Series("tiering.hot_threshold");
    handles_.candidates = &timeline.Series("tiering.candidates");
    handles_.promote_mbps = &timeline.Series("tiering.promote_mbps");
    handles_.demote_mbps = &timeline.Series("tiering.demote_mbps");
    handles_.rate_limit_saturation = &timeline.Series("tiering.rate_limit_saturation");
    handles_.low_tier_pages = &timeline.Series("tiering.low_tier_pages");
    handles_.reaccess_ratio = &timeline.Series("tiering.promote_reaccess_ratio");
    handles_.ping_pong = &timeline.Series("tiering.ping_pong_demotions");
    handles_.vmstat = AttachVmCounterSeries(timeline);
    handles_.ticks = &telemetry_->GetCounter("tiering.ticks");
    handles_.promoted_pages = &telemetry_->GetCounter("tiering.promoted_pages");
    handles_.demoted_pages = &telemetry_->GetCounter("tiering.demoted_pages");
    handles_.hot_threshold_gauge = &telemetry_->GetGauge("tiering.hot_threshold");
    handles_.rate_limit_saturation_gauge = &telemetry_->GetGauge("tiering.rate_limit_saturation");
    handles_.attached = true;
  }
  const double t_ms = SecToMs(sim_seconds_);
  const double page_bytes = static_cast<double>(allocator_.page_bytes());
  const double promote_mbps =
      static_cast<double>(result.promoted_pages) * page_bytes / static_cast<double>(kMB) / dt_seconds;
  const double demote_mbps =
      static_cast<double>(result.demoted_pages) * page_bytes / static_cast<double>(kMB) / dt_seconds;

  handles_.hot_threshold->Sample(t_ms, result.hot_threshold);
  handles_.candidates->Sample(t_ms, static_cast<double>(result.candidates));
  handles_.promote_mbps->Sample(t_ms, promote_mbps);
  handles_.demote_mbps->Sample(t_ms, demote_mbps);
  // How much of the kernel.numa_balancing_promote_rate_limit_MBps budget the
  // daemon consumed this tick (>= ~1.0 means it is promotion-rate bound —
  // the §4.2.2 thrashing precondition).
  const double saturation =
      config_.promote_rate_limit_mbps > 0.0 ? promote_mbps / config_.promote_rate_limit_mbps : 0.0;
  handles_.rate_limit_saturation->Sample(t_ms, saturation);
  handles_.low_tier_pages->Sample(t_ms, static_cast<double>(LowTierPages()));
  // Migration-outcome feedback, exposed so the diagnosis layer (and humans)
  // can see what the adaptive policy sees: the fraction of recently promoted
  // pages still being touched, and §4.2.3 ping-pong volume.
  const double reaccess =
      tick_recent_promoted_ > 0
          ? static_cast<double>(tick_recent_promoted_hot_) /
                static_cast<double>(tick_recent_promoted_)
          : 0.0;
  handles_.reaccess_ratio->Sample(t_ms, reaccess);
  handles_.ping_pong->Sample(t_ms, static_cast<double>(tick_ping_pong_));
  SampleVmCounters(handles_.vmstat, t_ms, allocator_.counters());

  handles_.ticks->Increment();
  handles_.promoted_pages->Add(result.promoted_pages);
  handles_.demoted_pages->Add(result.demoted_pages);
  handles_.hot_threshold_gauge->Set(result.hot_threshold);
  handles_.rate_limit_saturation_gauge->Set(saturation);

  telemetry_->trace().Span(
      telemetry_track_, "tick", t_ms - SecToMs(dt_seconds), SecToMs(dt_seconds),
      {{"promoted_pages", static_cast<double>(result.promoted_pages)},
       {"demoted_pages", static_cast<double>(result.demoted_pages)},
       {"hot_threshold", result.hot_threshold},
       {"migrated_mb", BytesToMBd(result.migrated_bytes)}});
}

void TieredMemory::EmitTickEvents(const TickResult& result, uint64_t watermark_demoted) {
  if (telemetry_ == nullptr) {
    return;
  }
  const double t_ms = SecToMs(sim_seconds_);
  const double page_mb = BytesToMB(allocator_.page_bytes());
  // Routine tiering activity attributes best-effort: the responsible window
  // while one is open, kNoWindow on healthy runs (promotion bursts matter
  // for the ping-pong detector even without faults).
  const int32_t window = (faults_ != nullptr && faults_->enabled())
                             ? faults_->AttributedWindow()
                             : telemetry::kNoWindow;
  if (result.candidates > 0 || result.promoted_pages > 0) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPagePromote, t_ms)
            .WithWindow(window)
            .WithReason(policy_->event_reason())
            .WithA(static_cast<double>(result.promoted_pages))
            .WithB(static_cast<double>(result.candidates)));
  }
  const uint64_t pressure_demoted = result.demoted_pages - watermark_demoted;
  if (pressure_demoted > 0) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPageDemote, t_ms)
            .WithWindow(window)
            .WithReason(0)
            .WithA(static_cast<double>(pressure_demoted))
            .WithB(static_cast<double>(pressure_demoted) * page_mb));
  }
  if (watermark_demoted > 0) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPageDemote, t_ms)
            .WithWindow(window)
            .WithReason(1)
            .WithA(static_cast<double>(watermark_demoted))
            .WithB(static_cast<double>(watermark_demoted) * page_mb));
  }
}

void DeclareTieringKnobs(KnobSet& knobs) {
  const TieringConfig defaults;
  knobs.Declare("kernel.numa_balancing_promote_rate_limit_MBps",
                defaults.promote_rate_limit_mbps,
                "maximum page promotion/demotion throughput (MB/s)");
  knobs.Declare("vm.hot_page_threshold", defaults.initial_hot_threshold,
                "sampled accesses per interval for a page to count as hot");
  knobs.Declare("vm.hot_threshold_auto_adjust", defaults.dynamic_threshold ? 1.0 : 0.0,
                "1 = adapt the hot threshold to the promotion rate limit");
  knobs.DeclareString("vm.tiering_policy", defaults.PolicyName(),
                      "promotion policy name, resolved through os::PolicyRegistry::BuiltIns()");
  knobs.Declare("vm.demotion_free_watermark", defaults.demotion_free_watermark,
                "DRAM free fraction below which cold pages demote");
  knobs.Declare("vm.hint_fault_sample_rate", defaults.hint_fault_sample_rate,
                "fraction of real accesses observed by page-table scanning");
}

TieringConfig TieringConfigFromKnobs(const KnobSet& knobs) {
  TieringConfig cfg;
  auto get = [&](const char* key, double fallback) {
    return knobs.IsDeclared(key) ? knobs.Get(key) : fallback;
  };
  cfg.promote_rate_limit_mbps =
      get("kernel.numa_balancing_promote_rate_limit_MBps", cfg.promote_rate_limit_mbps);
  cfg.initial_hot_threshold = get("vm.hot_page_threshold", cfg.initial_hot_threshold);
  cfg.dynamic_threshold = get("vm.hot_threshold_auto_adjust", 1.0) != 0.0;
  if (knobs.IsDeclaredString("vm.tiering_policy")) {
    cfg.policy = knobs.GetString("vm.tiering_policy");
  }
  cfg.demotion_free_watermark = get("vm.demotion_free_watermark", cfg.demotion_free_watermark);
  cfg.hint_fault_sample_rate = get("vm.hint_fault_sample_rate", cfg.hint_fault_sample_rate);
  return cfg;
}

}  // namespace cxl::os
