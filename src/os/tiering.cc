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

// The lazy decay is bit-identical to a per-tick sweep only under IEEE
// single precision with subnormals and without value-changing
// optimisations: a page's pending halvings become one multiply exactly
// when every step stays normal.
#ifdef __FAST_MATH__
#error "src/os/tiering.cc needs IEEE float semantics; build it without -ffast-math"
#endif
static_assert(std::numeric_limits<float>::is_iec559, "heat is an IEEE-754 binary32");
static_assert(std::numeric_limits<float>::has_denorm == std::denorm_present,
              "heat decays through the subnormals");

namespace cxl::os {

namespace {
// Warm-set geometry. A word with kDenseWordBits or more bits set is dense.
// Every page of a dense word is handled alike, zero heat included: the
// candidate/cold-pool pass decides a word's 64 pages with vectorised
// compares and residency masks, and a catch-up sweeps them straight, which
// vectorises too. Sparse words are walked bit by bit, and a page found
// there at heat 0 leaves the set. Bit-by-bit walking of a nearly full word
// is far slower per page than the word at a time; a sparse word taken
// whole reads columns it need not touch.
constexpr PageId kWordBits = 64;
constexpr int kDenseWordBits = 16;

// The most halvings by 2^-m one exact multiply may stand for is
// kMaxExactShift / m: then its scale 2^-(m n) and its limit FLT_MIN * 2^(m n)
// are both normal floats.
constexpr int kMaxExactShift = 126;

// std::ldexp(1.0f, e) for -126 <= e <= 127, from its bits.
float Pow2(int e) { return std::bit_cast<float>(static_cast<uint32_t>(127 + e) << 23); }

uint64_t Bit(PageId id) { return uint64_t{1} << (id % kWordBits); }

// std::popcount by its SWAR steps, which stay inline: at the baseline ISA
// std::popcount is a library call, ~3x slower in a loop over every word.
uint64_t CountBits(uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555u;
  word = (word & 0x3333333333333333u) + ((word >> 2) & 0x3333333333333333u);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return (word * 0x0101010101010101u) >> 56;
}

// Full words, the common dense case, skip the count. The catch-up asks
// this of every word it brings current, RecordAccess's included.
int WarmBits(uint64_t word) {
  return word == ~uint64_t{0} ? static_cast<int>(kWordBits) : static_cast<int>(CountBits(word));
}

// Whether `word`, the warm set's word `w`, is dense. Only words covering
// existing page slots count.
bool IsDense(uint64_t word, size_t w, uint64_t page_count) {
  return WarmBits(word) >= kDenseWordBits && (w + 1) * kWordBits <= page_count;
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

// The node of `kind` with the most free pages (the first on a tie), or -1
// when each is full.
topology::NodeId MostFreeNode(const PageAllocator& allocator, topology::NodeKind kind) {
  topology::NodeId best = -1;
  uint64_t best_free = 0;
  for (const auto& n : allocator.platform().nodes()) {
    if (n.kind == kind && allocator.FreePages(n.id) > best_free) {
      best_free = allocator.FreePages(n.id);
      best = n.id;
    }
  }
  return best;
}
}  // namespace

HeatDecay::HeatDecay(float factor) : factor_(factor) {
  // A factor of exactly 2^-m: frexp gives 0.5 * 2^(1 - m).
  int exponent = 0;
  if (std::frexp(factor, &exponent) == 0.5f && 1 - exponent >= 1 &&
      1 - exponent <= kMaxExactShift) {
    shift_ = 1 - exponent;
  }
}

float HeatDecay::ApplyMany(float heat, uint32_t n) const {
  if (shift_ != 0) {
    const uint32_t chunk = static_cast<uint32_t>(kMaxExactShift / shift_);
    while (n > 0) {
      const uint32_t c = std::min(n, chunk);
      const int e = shift_ * static_cast<int>(c);
      if (!(heat >= Pow2(e - kMaxExactShift))) {
        break;
      }
      heat *= Pow2(-e);
      n -= c;
    }
  }
  for (; n > 0; --n) {
    const float next = heat * factor_;
    if (next == heat) {
      break;  // 0, +inf or a subnormal the factor rounds back: every later step too.
    }
    heat = next;
  }
  return heat;
}

void HeatDecay::ApplyWord(float* heat, uint32_t n) const {
  float scale = factor_;  // One decay is the one multiply.
  if (n > 1) {
    // One multiply by 2^-(m n) when n is one chunk and every page is 0 or
    // within its limit; the compares OR-reduce, which vectorises.
    uint32_t inexact = shift_ == 0 || n > static_cast<uint32_t>(kMaxExactShift / shift_) ? 1 : 0;
    const int e = shift_ * static_cast<int>(std::min<uint32_t>(n, kMaxExactShift));
    if (inexact == 0) {
      const float limit = Pow2(e - kMaxExactShift);
      for (size_t j = 0; j < kWordBits; ++j) {
        inexact |= static_cast<uint32_t>(heat[j] != 0.0f) & static_cast<uint32_t>(heat[j] < limit);
      }
    }
    if (inexact != 0) {
      for (size_t j = 0; j < kWordBits; ++j) {
        heat[j] = Apply(heat[j], n);
      }
      return;
    }
    scale = Pow2(-e);
  }
  for (size_t j = 0; j < kWordBits; ++j) {
    heat[j] *= scale;
  }
}

const char* TieringConfig::PolicyName() const {
  return policy.empty() ? kHotPageSelectionPolicyName : policy.c_str();
}

TickWork& TickWork::operator+=(const TickWork& other) {
  pages_visited += other.pages_visited;
  pool_offers += other.pool_offers;
  pool_shrinks += other.pool_shrinks;
  sorted_entries += other.sorted_entries;
  dense_words_skipped += other.dense_words_skipped;
  heat_catch_ups += other.heat_catch_ups;
  return *this;
}

void PromotionLedger::Grow(size_t words) {
  for (std::vector<uint64_t>& slot : slots_) {
    slot.resize(words, 0);
  }
  recently_promoted_.resize(words, 0);
}

void PromotionLedger::EndTick(uint32_t next_epoch) {
  std::vector<uint64_t>& slot = slots_[next_epoch % kSlots];
  std::fill(slot.begin(), slot.end(), 0);
}

void PromotionLedger::Promoted(PageId page, uint32_t epoch) {
  slots_[epoch % kSlots][page / kWordBits] |= Bit(page);
  recently_promoted_[page / kWordBits] |= Bit(page);
  if (IsQuarantined(page)) {
    quarantined_promotions_.push_back(page);
  }
}

void PromotionLedger::Demoted(PageId page) {
  // The slots hold the window's past ticks and this one; the recent set
  // covers them all.
  const size_t w = page / kWordBits;
  if ((recently_promoted_[w] & Bit(page)) == 0) {
    return;
  }
  uint64_t window = 0;
  for (const std::vector<uint64_t>& slot : slots_) {
    window |= slot[w];
  }
  if ((window & Bit(page)) != 0) {
    ++feedback_.ping_pong_demotions;
  }
}

uint64_t PromotionLedger::CountRecentPromotions(const PageAllocator& allocator,
                                                const std::vector<uint64_t>& touched,
                                                uint32_t epoch) {
  // Word by word over the recent set; the tick of `epoch` has promoted
  // nothing yet, so the window is the other slots.
  const uint64_t* dram_bits = allocator.dram_bits().data();
  const size_t current = epoch % kSlots;
  uint64_t visited = 0;
  for (size_t w = 0; w < recently_promoted_.size(); ++w) {
    if (recently_promoted_[w] == 0) {
      continue;
    }
    visited += static_cast<uint64_t>(std::popcount(recently_promoted_[w]));
    uint64_t window = 0;
    for (size_t s = 0; s < kSlots; ++s) {
      window |= s != current ? slots_[s][w] : 0;
    }
    recently_promoted_[w] = window;  // Pages aged out of the window leave.
    const uint64_t resident = window & dram_bits[w];
    feedback_.recent_promoted += static_cast<uint64_t>(std::popcount(resident));
    feedback_.recent_promoted_hot += static_cast<uint64_t>(std::popcount(resident & touched[w]));
  }
  return visited;
}

WarmSet::WarmSet(PageAllocator& allocator, PromotionLedger& ledger, float decay_factor,
                 double sample_rate)
    : allocator_(allocator), ledger_(ledger), sample_rate_(sample_rate), decay_(decay_factor) {
  // The allocator's heat column starts here, all zero, so the warm set
  // starts empty.
  allocator_.TrackHeat();
  Grow();
}

void WarmSet::RecordAccess(PageId page, uint64_t accesses) {
  // Hint-fault sampling: only a fraction of real accesses are observed.
  const double sampled = static_cast<double>(accesses) * sample_rate_;
  const size_t w = page / kWordBits;
  if (w >= warm_.size()) {
    Grow();
  }
  CatchUp(w);
  float& heat = allocator_.mutable_heat_column()[page];
  heat += static_cast<float>(sampled);
  allocator_.mutable_counters().numa_hint_faults += static_cast<uint64_t>(std::ceil(sampled));
  warm_[w] |= Bit(page);
  touched_[w] |= Bit(page);
  word_hi_[w] = std::max(word_hi_[w], heat);
}

void WarmSet::RecordAccessRun(PageId first, uint64_t count, uint64_t accesses) {
  if (count == 0) {
    return;
  }
  const PageId last = first + count - 1;
  assert(last < allocator_.page_count());
  // Each page gets RecordAccess's float add and ceil, so the heats and the
  // integer fault count come out exactly as `count` calls leave them.
  const double sampled = static_cast<double>(accesses) * sample_rate_;
  const float add = static_cast<float>(sampled);
  const size_t first_word = first / kWordBits;
  const size_t last_word = last / kWordBits;
  if (last_word >= warm_.size()) {
    Grow();
  }
  for (size_t w = first_word; w <= last_word; ++w) {
    CatchUp(w);
  }
  float* heat = allocator_.mutable_heat_column() + first;
  for (uint64_t i = 0; i < count; ++i) {
    heat[i] += add;
  }
  allocator_.mutable_counters().numa_hint_faults +=
      count * static_cast<uint64_t>(std::ceil(sampled));
  const uint64_t head = ~uint64_t{0} << (first % kWordBits);
  const uint64_t tail = ~uint64_t{0} >> (kWordBits - 1 - last % kWordBits);
  const auto mark = [&](size_t w, uint64_t bits) {
    warm_[w] |= bits;
    touched_[w] |= bits;
  };
  BoundWord(first_word);
  if (first_word == last_word) {
    mark(first_word, head & tail);
    return;
  }
  mark(first_word, head);
  for (size_t w = first_word + 1; w < last_word; ++w) {
    mark(w, ~uint64_t{0});
    word_lo_[w] += add;
    word_hi_[w] += add;
  }
  mark(last_word, tail);
  BoundWord(last_word);
}

void WarmSet::Grow() {
  // The ledger's bitsets and the warm set's trail page_count(), since
  // pages are created lazily by the allocator. Each grows in one step to
  // the current page count, in this order: the order they are allocated
  // in shapes the heap, on which cell set-up times were measured. Page ids
  // must fit in the low 32 bits of a ColdPoolSelector key; the largest
  // region in the tree has 2^21 pages.
  const uint64_t pages = allocator_.page_count();
  assert(pages <= (uint64_t{1} << 32));
  warm_.resize((pages + kWordBits - 1) / kWordBits, 0);
  touched_.resize(warm_.size(), 0);
  ledger_.Grow(warm_.size());
  // New slots hold heat 0. They are created only by allocation, after
  // which the next tick zeroes every lower bound, the word they extend
  // included. New words start current.
  word_lo_.resize(warm_.size(), 0.0f);
  word_hi_.resize(warm_.size(), 0.0f);
  word_decays_.resize(warm_.size(), decays_);
}

void WarmSet::BoundWord(size_t w) {
  const PageId base = w * kWordBits;
  const HeatBounds b = BoundHeat(allocator_.heat_column() + base,
                                 std::min<uint64_t>(kWordBits, allocator_.page_count() - base));
  word_lo_[w] = b.lo;
  word_hi_[w] = b.hi;
}

void WarmSet::CatchUpWord(size_t w) {
  const uint32_t n = decays_ - word_decays_[w];
  word_decays_[w] = decays_;
  ++work_.heat_catch_ups;
  const uint64_t bits = warm_[w];
  if (bits == 0) {
    word_lo_[w] = 0.0f;  // Every slot holds heat 0.
    word_hi_[w] = 0.0f;
    return;
  }
  const PageId base = w * kWordBits;
  float* heat = allocator_.mutable_heat_column() + base;
  uint64_t zero = 0;  // The pages left at heat 0: all of a dense word's, a sparse word's warm ones.
  if (IsDense(bits, w, allocator_.page_count())) {
    decay_.ApplyWord(heat, n);
    zero = CompareHeat(heat, 0.0f, std::numeric_limits<float>::quiet_NaN()).below_cut;
    BoundWord(w);
  } else {
    // The word's other slots hold exactly 0, which decay keeps, so 0 is
    // its lower bound. A short last word may have every slot warm, but it
    // is never dense, so no pass skips it on that bound.
    float hi = 0.0f;
    for (uint64_t left = bits; left != 0; left &= left - 1) {
      const int j = std::countr_zero(left);
      const float h = decay_.Apply(heat[j], n);
      heat[j] = h;
      zero |= uint64_t{h == 0.0f} << j;
      hi = std::max(hi, h);
    }
    word_lo_[w] = 0.0f;
    word_hi_[w] = hi;
  }
  if ((bits & zero) != 0) {
    // Pages leave the set at heat 0. A sparse word below zero_floor_ then
    // holds zero-heat DRAM pages: those just cleared, and a dense word's
    // earlier ones if the clearing leaves it sparse.
    warm_[w] = bits & ~zero;
    const uint64_t zero_dram = zero & allocator_.dram_bits()[w];
    if (zero_dram != 0) {
      zero_floor_ = std::min(zero_floor_, base + static_cast<PageId>(std::countr_zero(zero_dram)));
    }
  }
}

float WarmSet::Heat(PageId page) const {
  const float heat = allocator_.heat_column()[page];
  const size_t w = page / kWordBits;
  return w < word_decays_.size() ? decay_.Apply(heat, decays_ - word_decays_[w]) : heat;
}

void WarmSet::Settle() {
  for (size_t w = 0; w < word_decays_.size(); ++w) {
    CatchUp(w);
  }
}

void WarmSet::BeginTick() {
  Grow();
  // Pages enter DRAM outside the daemon only by allocation, at any id and
  // with heat 0: after any, the zero walk starts again from id 0, and no
  // word's lower bound is above 0.
  if (allocator_.counters().pgalloc != seen_pgalloc_) {
    seen_pgalloc_ = allocator_.counters().pgalloc;
    zero_floor_ = 0;
    std::fill(word_lo_.begin(), word_lo_.end(), 0.0f);
  }
}

void WarmSet::Decay() {
  // Monotone rounding keeps each bound a bound of its word's decayed heats.
  ++decays_;
  for (size_t w = 0; w < word_lo_.size(); ++w) {
    word_lo_[w] *= decay_.factor();
    word_hi_[w] *= decay_.factor();
  }
}

void WarmSet::ResetHeat(PageId page) {
  // Its warm bit goes stale. Heat 0 stays 0 through the word's pending
  // decays, so the word need not catch up first.
  allocator_.mutable_heat_column()[page] = 0.0f;
  if (page / kWordBits >= warm_.size()) {
    Grow();
  }
  word_lo_[page / kWordBits] = 0.0f;
  zero_floor_ = std::min(zero_floor_, page);
}

template <typename Dense, typename Sparse>
void WarmSet::VisitWarm(Dense&& dense, Sparse&& sparse) {
  const uint64_t page_count = allocator_.page_count();
  uint64_t visited = 0;
  for (size_t w = 0; w < warm_.size(); ++w) {
    if (warm_[w] == 0) {
      continue;
    }
    if (IsDense(warm_[w], w, page_count)) {
      if (dense(w)) {
        visited += kWordBits;
        continue;
      }
      // Its catch-up left the word sparse: it is walked as one.
    }
    CatchUp(w);
    uint64_t keep = warm_[w];
    visited += static_cast<uint64_t>(std::popcount(keep));
    for (uint64_t bits = keep; bits != 0; bits &= bits - 1) {
      const PageId id = w * kWordBits + static_cast<PageId>(std::countr_zero(bits));
      if (!sparse(id)) {
        keep &= ~Bit(id);
      }
    }
    warm_[w] = keep;
  }
  work_.pages_visited += visited;
}

uint64_t WarmSet::ScanWarm(const CandidateFilter& filter, ColdPoolSelector& pool,
                           ArenaVector<ColdPoolSelector::Key>& hot) {
  const float* heat_col = allocator_.heat_column();
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  const uint64_t* cxl_bits = allocator_.cxl_bits().data();
  uint64_t offered_dram = 0;
  uint64_t offers = 0;
  uint64_t skipped = 0;
  // The CXL pages of word w the filter's touched test admits.
  const auto eligible = [&](size_t w) {
    return cxl_bits[w] & (filter.touched_only ? touched_[w] : ~uint64_t{0});
  };
  // An eligible page whose heat passed the filter: the quarantine test left.
  const auto consider = [&](PageId id, float heat) {
    if (!ledger_.IsQuarantined(id)) {
      hot.push_back(HottestFirstKeyOf(heat, id));
    }
  };
  const uint64_t page_count = allocator_.page_count();
  // Bounds that put every page above the cut and below min_heat leave both
  // masks empty.
  const auto skippable = [&](size_t w) {
    return !(word_hi_[w] >= filter.min_heat) && word_lo_[w] > pool.cut_heat();
  };
  VisitWarm(
      [&](size_t w) {
        // Every page of a dense word, zero heat included: a page with heat
        // 0 sorts first in the pool and is a candidate only when the
        // filter admits it. Only DRAM pages that may pass the cut reach
        // Offer, and only CXL pages passing the heat test are considered.
        // A word the bounds skip is not brought current; one whose
        // catch-up leaves it sparse goes back to VisitWarm as sparse.
        if (!skippable(w)) {
          CatchUp(w);
          if (!IsDense(warm_[w], w, page_count)) {
            return false;
          }
        }
        const uint64_t dram = dram_bits[w];
        offered_dram += static_cast<uint64_t>(std::popcount(dram));
        if (skippable(w)) {
          ++skipped;
          return true;
        }
        const float* heat = heat_col + w * kWordBits;
        const PageId base = w * kWordBits;
        const HeatMasks masks = CompareHeat(heat, pool.cut_heat(), filter.min_heat);
        for (uint64_t bits = dram & masks.below_cut; bits != 0; bits &= bits - 1) {
          const int j = std::countr_zero(bits);
          ++offers;
          pool.Offer(ColdPoolSelector::KeyOf(heat[j], base + static_cast<PageId>(j)));
        }
        for (uint64_t bits = eligible(w) & masks.candidate; bits != 0; bits &= bits - 1) {
          const int j = std::countr_zero(bits);
          consider(base + static_cast<PageId>(j), heat[j]);
        }
        return true;
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
        } else if ((eligible(id / kWordBits) & Bit(id)) != 0 && heat >= filter.min_heat) {
          consider(id, heat);
        }
        return true;
      });
  work_.pool_offers += offers;
  work_.dense_words_skipped += skipped;
  return offered_dram;
}

template <typename Visit>
void WarmSet::VisitCold(PageId from, Visit&& visit) {
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
        work_.pages_visited += visited;
        return;
      }
    }
  }
  work_.pages_visited += visited;
}

bool WarmSet::ZeroHeatCovers(uint64_t k) const {
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  uint64_t warm_dram = 0;
  for (size_t w = 0; w < warm_.size(); ++w) {
    warm_dram += CountBits(warm_[w] & dram_bits[w]);
  }
  return allocator_.DramResidentCount() - warm_dram >= k;
}

void WarmSet::OfferZeroHeatDram(ColdPoolSelector& selector, uint64_t count) {
  work_.pool_offers += count;
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  PageId first = kInvalidPage;
  VisitCold(zero_floor_, [&](PageId id) {
    if ((dram_bits[id / kWordBits] & Bit(id)) != 0) {
      first = std::min(first, id);
      selector.Offer(ColdPoolSelector::KeyOf(0.0f, id));
      --count;
    }
    return count > 0;
  });
  assert(count == 0);
  // The walk found none below its first one. The pages this tick demotes
  // from the pool become CXL pages the next walk starts at and skips.
  zero_floor_ = first;
}

void WarmSet::TakeZeroHeatDram(uint64_t k, std::vector<ColdPoolSelector::Key>& keys) {
  const uint64_t* dram_bits = allocator_.dram_bits().data();
  const float* heat_col = allocator_.heat_column();
  const uint64_t page_count = allocator_.page_count();
  const size_t floor_word = zero_floor_ / kWordBits;
  PageId first_sparse = kInvalidPage;
  uint64_t visited = 0;
  for (size_t w = 0; w < warm_.size() && keys.size() < k; ++w) {
    uint64_t zero = 0;
    bool sparse = true;
    if (IsDense(warm_[w], w, page_count)) {
      if (word_lo_[w] > 0.0f) {
        continue;  // Every page of the word is above heat 0.
      }
      CatchUp(w);
      visited += kWordBits;
      zero = dram_bits[w] &
             CompareHeat(heat_col + w * kWordBits, 0.0f, std::numeric_limits<float>::quiet_NaN())
                 .below_cut;
      // A catch-up that clears bits may leave the word sparse: its
      // zero-heat pages are then a sparse word's, with clear bits.
      sparse = !IsDense(warm_[w], w, page_count);
    } else if (w >= floor_word) {
      // The pass left a sparse word's bit set only at heat > 0.
      zero = dram_bits[w] & ~warm_[w];
    }
    if (sparse && zero != 0 && first_sparse == kInvalidPage) {
      first_sparse = w * kWordBits + static_cast<PageId>(std::countr_zero(zero));
    }
    for (; zero != 0 && keys.size() < k; zero &= zero - 1) {
      ++visited;
      keys.push_back(ColdPoolSelector::KeyOf(
          0.0f, w * kWordBits + static_cast<PageId>(std::countr_zero(zero))));
    }
  }
  assert(keys.size() == k);
  work_.pages_visited += visited;
  if (first_sparse != kInvalidPage) {
    // As in OfferZeroHeatDram: no sparse word below it holds a zero-heat
    // DRAM page.
    zero_floor_ = first_sparse;
  }
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

void ColdPool::Fill(uint64_t batch, WarmSet& warm, const WarmSet::CandidateFilter& filter,
                    ArenaVector<ColdPoolSelector::Key>& hot) {
  const uint64_t k =
      std::min<uint64_t>(std::max<uint64_t>(4 * batch, 4096), allocator_.DramResidentCount());
  const bool zero_heat = warm.ZeroHeatCovers(k);
  ColdPoolSelector selector(keys_, zero_heat ? 0 : k);
  const uint64_t offered_dram = warm.ScanWarm(filter, selector, hot);
  if (zero_heat) {
    // ColdPoolSelector's one allocation: a pool grown key by key through
    // doubling reallocations leaves freed blocks that slow the process's
    // later allocations (kv-hotpromote set-up ran ~2x slower with them).
    keys_.clear();
    keys_.reserve(2 * k);
    warm.TakeZeroHeatDram(k, keys_);
  } else {
    // The zero-heat DRAM pages left out of the pass sort below every warm
    // page, by id. Their count is exact, so the walk offering them stops
    // at the last one that can make the pool.
    const uint64_t wanted = std::min(k, allocator_.DramResidentCount() - offered_dram);
    if (wanted > 0) {
      warm.OfferZeroHeatDram(selector, wanted);
    }
    selector.Finish();
    work_.pool_shrinks += selector.shrinks();
    work_.sorted_entries += keys_.size();
  }
  next_ = 0;
  valid_ = true;
  floor_ = keys_.empty() ? 0 : keys_.back();
}

TieredMemory::TieredMemory(PageAllocator& allocator, TieringConfig config)
    : allocator_(allocator),
      config_(std::move(config)),
      warm_(allocator_, ledger_, static_cast<float>(config_.heat_decay),
            config_.hint_fault_sample_rate),
      cold_pool_(allocator_) {
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

uint64_t TieredMemory::DemoteColdPages(uint64_t count) {
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
  if (!cold_pool_.Holds(want)) {
    // The tick's pass without candidates. The k-smallest set does not
    // depend on the order pages are offered in.
    ArenaVector<ColdPoolSelector::Key> no_candidates{
        ArenaAllocator<ColdPoolSelector::Key>(&tick_arena_)};
    cold_pool_.Fill(count, warm_,
                    WarmSet::CandidateFilter{std::numeric_limits<float>::quiet_NaN(), false},
                    no_candidates);
  }

  uint64_t demoted = 0;
  for (uint64_t i = 0; i < want && !cold_pool_.Drained(); ++i) {
    // The demotion target: the CXL node with the most room.
    const topology::NodeId target = MostFreeNode(allocator_, topology::NodeKind::kCxl);
    if (target < 0) {
      ++allocator_.mutable_counters().migrate_failed;
      break;
    }
    const PageId id = cold_pool_.TakeColdest();
    if (allocator_.MovePage(id, target).ok()) {
      ++demoted;
      ++allocator_.mutable_counters().pgdemote;
      ledger_.Demoted(id);
    }
  }
  return demoted;
}

TieredMemory::TickResult TieredMemory::SkipTick(TickResult result, double dt_seconds,
                                                int reason) {
  static constexpr const char* kCounters[] = {
      "tiering.stalled_ticks", "tiering.backoff_ticks", "tiering.policy_backoff_ticks"};
  EndTick(result, dt_seconds);
  if (telemetry_ != nullptr) {
    telemetry_->GetCounter(kCounters[reason]).Increment();
    // The diagnosis layer joins every degradation response back to a
    // cause, so the event records only when a fault window is
    // attributable: a stall to its own window, which is open while the
    // daemon is stalled, the other skips to the responsible one.
    const bool faulty = faults_ != nullptr && faults_->enabled();
    const int32_t window = !faulty     ? telemetry::kNoWindow
                           : reason == 0 ? faults_->ActiveWindowOf(fault::FaultType::kDaemonStall)
                                         : faults_->AttributedWindow();
    if (window != telemetry::kNoWindow) {
      telemetry_->events().Record(
          telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
              .WithWindow(window)
              .WithReason(reason));
    }
  }
  return result;
}

void TieredMemory::EndTick(TickResult& result, double dt_seconds) {
  ++epoch_;
  sim_seconds_ += dt_seconds;
  warm_.EndTick();
  ledger_.EndTick(epoch_);
  result += warm_.TakeWork();
  result += cold_pool_.TakeWork();
}

TieredMemory::TickResult TieredMemory::Tick(double dt_seconds) {
  TickResult result;
  result.hot_threshold = policy_->hot_threshold();

  warm_.BeginTick();
  // Heat changed since the previous tick (decay, sampled accesses), so last
  // tick's cold pool no longer reflects the (heat, id) order.
  cold_pool_.Invalidate();

  // Degraded-path gates. Both leave page state untouched: a wedged daemon
  // thread neither scans nor decays, and a backed-off daemon sits out the
  // tick after repeated promotion failures. Unreachable without an enabled
  // injector, so healthy runs are bit-for-bit unchanged. These run before
  // the policy is consulted — a wedged kernel thread does not make
  // decisions.
  if (faults_ != nullptr && faults_->enabled()) {
    if (faults_->DaemonStalled()) {
      return SkipTick(result, dt_seconds, 0);
    }
    if (backoff_ticks_remaining_ > 0) {
      --backoff_ticks_remaining_;
      return SkipTick(result, dt_seconds, 1);
    }
  }

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
    // degraded-link window): the same no-scan/no-decay semantics as the
    // daemon's promotion-failure backoff, with its own counter and reason.
    return SkipTick(result, dt_seconds, 2);
  }
  const uint64_t budget_pages = decision.budget_pages;
  // Cold pages freed per demotion call; the cold pool holds a few batches.
  const uint64_t demote_batch = std::clamp<uint64_t>(budget_pages / 8, 16, 4096);

  // Migration-outcome instrumentation for this tick (observational only).
  ledger_.BeginTick();

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
    // there is nothing to promote and nothing the pool is for; skip.
    WarmSet::CandidateFilter filter;
    switch (decision.scan) {
      case CandidateScan::kHotnessRanked:
        // Heat >= the double threshold. Rounding the threshold up to a
        // float keeps that exact: a float heat reaches the threshold
        // exactly when it reaches the smallest float at or above it.
        // Only this scan feeds the promotion-outcome observation.
        result.pages_visited += ledger_.CountRecentPromotions(allocator_, warm_.touched(), epoch_);
        filter.min_heat = CeilToFloat(decision.hot_threshold);
        break;
      case CandidateScan::kRecency:
        // MRU balancing: everything touched since the last scan qualifies,
        // in scan order — no hotness ranking. This is precisely why the
        // earlier patch "may not accurately identify high-demand pages"
        // (§2.3): the budget is spent on recently-touched pages regardless
        // of their heat. Heat > 0 is heat >= the smallest subnormal.
        filter.min_heat = std::numeric_limits<float>::denorm_min();
        filter.touched_only = true;
        break;
      case CandidateScan::kSecondAccess:
        // TPP-like: second observed access promotes. With the default
        // sampling rate a page needs ~2 sampled hits; accumulated heat >= 2
        // approximates the active-list check. No ordering, no rate limiting
        // (see below).
        filter.min_heat = 2.0f;
        break;
    }
    cold_pool_.Fill(demote_batch, warm_, filter, hot);
    // A threshold at or below 0 also admits the zero-heat CXL pages the
    // pass left out. Under such a threshold the pass skips no word, so
    // filling the pool brought none current and cleared no warm bit.
    if (decision.scan == CandidateScan::kHotnessRanked && 0.0 >= decision.hot_threshold) {
      const uint64_t* cxl_bits = allocator_.cxl_bits().data();
      warm_.VisitCold(0, [&](PageId id) {
        if ((cxl_bits[id / kWordBits] & Bit(id)) != 0 && !ledger_.IsQuarantined(id)) {
          hot.push_back(HottestFirstKeyOf(0.0f, id));
        }
        return true;
      });
    }
  }
  if (decision.scan == CandidateScan::kHotnessRanked) {
    // Hottest first, page id breaking heat ties: the rate-limit budget
    // truncates this list, so tie order decides *which* pages promote —
    // without the tie-break that choice is implementation-defined
    // (caught by cxl_lint CXL-D007). The tie-break lives in the key's low
    // bits, so the keys are distinct and a plain sort is exact.
    std::sort(hot.begin(), hot.end());
    result.sorted_entries += hot.size();
  }
  result.candidates = hot.size();
  allocator_.mutable_counters().pgpromote_candidate += hot.size();

  uint64_t promoted = 0;
  bool promotion_failed = false;
  for (const ColdPoolSelector::Key key : hot) {
    const PageId id = ColdPoolSelector::IdOf(key);
    if (promoted >= budget_pages) {
      allocator_.mutable_counters().promote_rate_limited += hot.size() - promoted;
      break;
    }
    topology::NodeId target = MostFreeNode(allocator_, topology::NodeKind::kDram);
    if (target < 0) {
      // DRAM full: demote cold pages to make room (kswapd-style), which
      // consumes migration bandwidth too. Demote in small batches.
      const uint64_t freed = DemoteColdPages(demote_batch);
      result.demoted_pages += freed;
      result.migrated_bytes += static_cast<double>(freed) * page_bytes;
      target = MostFreeNode(allocator_, topology::NodeKind::kDram);
      if (target < 0) {
        promotion_failed = true;
        break;  // Machine genuinely full.
      }
    }
    if (allocator_.MovePage(id, target).ok()) {
      ++promoted;
      ++allocator_.mutable_counters().pgpromote_success;
      result.migrated_bytes += page_bytes;
      ledger_.Promoted(id, epoch_);
      warm_.EnteredDram(id);
      // A page entering DRAM at or below the cold pool's floor belongs in
      // the pool — drop it so the next demotion batch rescans. Promoted
      // pages are hot by construction, so this almost never fires.
      cold_pool_.EnteredDram(ColdPoolSelector::KeyOf(heat_col[id], id));
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
  const PromotionLedger::Feedback& feedback = ledger_.feedback();
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
  obs.recent_promoted = feedback.recent_promoted;
  obs.recent_promoted_hot = feedback.recent_promoted_hot;
  obs.ping_pong_demotions = feedback.ping_pong_demotions;
  obs.link_degraded = ctx.link_degraded;
  obs.cxl_latency_factor = ctx.cxl_latency_factor;
  policy_->Observe(obs);
  result.hot_threshold = policy_->hot_threshold();

  // Decay heat for the next interval, last, so that every read above saw
  // pre-decay heat. Each word's pages take it when the word catches up:
  // freed slots included, whose stale values allocation resets.
  warm_.Decay();
  EndTick(result, dt_seconds);
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
  if (!ledger_.Quarantine(page)) {
    return false;  // Already quarantined.
  }
  // The heat reset (and possible eviction below) perturbs the (heat, id)
  // order the demotion pool was built on.
  cold_pool_.Invalidate();
  warm_.ResetHeat(page);
  const topology::NodeId node = allocator_.NodeOf(page);
  if (node >= 0 && allocator_.IsDramNode(node)) {
    // Evict the poisoned page from the hot tier: it must not occupy DRAM
    // the daemon would otherwise give to healthy hot pages.
    const topology::NodeId target = MostFreeNode(allocator_, topology::NodeKind::kCxl);
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
  handles_.low_tier_pages->Sample(t_ms, static_cast<double>(allocator_.CxlResidentCount()));
  // Migration-outcome feedback, exposed so the diagnosis layer (and humans)
  // can see what the adaptive policy sees: the fraction of recently promoted
  // pages still being touched, and §4.2.3 ping-pong volume.
  const PromotionLedger::Feedback& feedback = ledger_.feedback();
  const double reaccess =
      feedback.recent_promoted > 0
          ? static_cast<double>(feedback.recent_promoted_hot) /
                static_cast<double>(feedback.recent_promoted)
          : 0.0;
  handles_.reaccess_ratio->Sample(t_ms, reaccess);
  handles_.ping_pong->Sample(t_ms, static_cast<double>(feedback.ping_pong_demotions));
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

}  // namespace cxl::os
