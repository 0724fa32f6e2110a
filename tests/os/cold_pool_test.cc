// Demotion cold-pool selection: the packed (heat, id) selection keys
// against the pair order they encode, the exact k-smallest selector against
// a bounded-heap reference over (heat, id) pairs, and the one-pass-per-tick
// daemon scan against a brute-force (heat, id) order of the pre-tick DRAM
// pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/os/page_allocator.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"
#include "src/util/distribution.h"
#include "src/util/rng.h"

namespace cxl::os {
namespace {

// The order the selection keys must reproduce: (heat, id) pairs, compared
// as floats and then as ids.
using Entry = std::pair<float, PageId>;
using Key = ColdPoolSelector::Key;

// The selection the daemon used before the selector: a bounded max-heap
// streamed over the pairs, then sort_heap.
std::vector<Entry> BoundedHeapReference(const std::vector<Entry>& stream, uint64_t k) {
  std::vector<Entry> heap;
  for (const Entry& e : stream) {
    if (heap.size() < k) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end());
    } else if (k > 0 && e < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = e;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

// The selector's output decoded back into pairs. A pair with heat -0.0f
// comes back as +0.0f, which the pair order does not tell apart.
std::vector<Entry> Decode(const std::vector<Key>& keys) {
  std::vector<Entry> entries;
  for (const Key key : keys) {
    entries.emplace_back(ColdPoolSelector::HeatOf(key), ColdPoolSelector::IdOf(key));
  }
  return entries;
}

std::vector<Entry> Select(const std::vector<Entry>& stream, uint64_t k) {
  std::vector<Key> pool;
  ColdPoolSelector selector(pool, k);
  for (const Entry& e : stream) {
    selector.Offer(ColdPoolSelector::KeyOf(e.first, e.second));
  }
  selector.Finish();
  return Decode(pool);
}

// Compares equal when the pair order ties -0.0f with +0.0f, as Decode does.
bool SameSelection(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Entry& x, const Entry& y) {
           return !(x < y) && !(y < x);
         });
}

enum class Heat {
  kUniform,
  kTies,
  kAllZero,
  kAscending,
  kDescending,
  kSawtooth,
  kExtremes,     // Subnormals, FLT_MIN, FLT_MAX, +inf and both zeros.
  kSignedZeros,  // -0.0f and +0.0f in ties, next to the smallest subnormal.
};

// `n` entries with ids 0..n-1 in id order (the daemon's scan order), heat
// shaped by `shape`.
std::vector<Entry> MakeStream(Heat shape, uint64_t n, Rng& rng) {
  std::vector<Entry> stream;
  stream.reserve(n);
  for (PageId id = 0; id < n; ++id) {
    float heat = 0.0f;
    switch (shape) {
      case Heat::kUniform:
        heat = static_cast<float>(rng.NextDouble() * 100.0);
        break;
      case Heat::kTies:
        heat = static_cast<float>(rng.NextBounded(3));
        break;
      case Heat::kAllZero:
        break;
      case Heat::kAscending:
        heat = static_cast<float>(id);
        break;
      case Heat::kDescending:
        heat = static_cast<float>(n - id);
        break;
      case Heat::kSawtooth:
        // Spark's streaming window in id order: each tooth falls from a
        // fresh peak, so a running cut keeps being undercut.
        heat = static_cast<float>(63 - id % 64) * 0.25f + static_cast<float>(rng.NextBounded(2));
        break;
      case Heat::kExtremes: {
        const float extremes[] = {0.0f,
                                  -0.0f,
                                  std::numeric_limits<float>::denorm_min(),
                                  2.0f * std::numeric_limits<float>::denorm_min(),
                                  std::numeric_limits<float>::min() / 2.0f,
                                  std::numeric_limits<float>::min(),
                                  1.0f,
                                  std::numeric_limits<float>::max(),
                                  std::numeric_limits<float>::infinity()};
        heat = extremes[rng.NextBounded(std::size(extremes))];
        break;
      }
      case Heat::kSignedZeros: {
        const float zeros[] = {0.0f, -0.0f, std::numeric_limits<float>::denorm_min()};
        heat = zeros[rng.NextBounded(std::size(zeros))];
        break;
      }
    }
    stream.emplace_back(heat, id);
  }
  return stream;
}

TEST(ColdPoolSelectorTest, MatchesBoundedHeapReferenceAcrossShapesAndSizes) {
  Rng rng(20241017);
  const Heat shapes[] = {Heat::kUniform,   Heat::kTies,       Heat::kAllZero,
                         Heat::kAscending, Heat::kDescending, Heat::kSawtooth,
                         Heat::kExtremes,  Heat::kSignedZeros};
  for (const Heat shape : shapes) {
    for (const uint64_t n : {0u, 1u, 2u, 17u, 1000u, 5003u}) {
      const std::vector<Entry> stream = MakeStream(shape, n, rng);
      for (const uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{64},
                               n / 3, n > 0 ? n - 1 : 0, n, n + 5, 3 * n + 1}) {
        SCOPED_TRACE("shape=" + std::to_string(static_cast<int>(shape)) +
                     " n=" + std::to_string(n) + " k=" + std::to_string(k));
        const std::vector<Entry> got = Select(stream, k);
        EXPECT_EQ(got.size(), std::min(k, n));
        EXPECT_TRUE(SameSelection(got, BoundedHeapReference(stream, k)));
      }
    }
  }
}

TEST(ColdPoolSelectorTest, OfferOrderDoesNotChangeTheSelection) {
  Rng rng(7);
  for (const Heat shape : {Heat::kTies, Heat::kSawtooth, Heat::kUniform, Heat::kSignedZeros}) {
    std::vector<Entry> stream = MakeStream(shape, 4000, rng);
    const std::vector<Entry> in_order = Select(stream, 300);
    for (size_t i = stream.size(); i > 1; --i) {  // Fisher-Yates, seeded.
      std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
    }
    EXPECT_EQ(Select(stream, 300), in_order);
    EXPECT_TRUE(SameSelection(BoundedHeapReference(stream, 300), in_order));
  }
}

TEST(ColdPoolSelectorTest, ReusesThePoolBufferAcrossSelections) {
  const auto key = ColdPoolSelector::KeyOf;
  std::vector<Key> pool = {key(9.0f, 1), key(8.0f, 2)};  // Stale keys are cleared.
  ColdPoolSelector first(pool, 2);
  first.Offer(key(3.0f, 5));
  first.Offer(key(1.0f, 6));
  first.Offer(key(2.0f, 4));
  first.Finish();
  EXPECT_EQ(pool, (std::vector<Key>{key(1.0f, 6), key(2.0f, 4)}));
  ColdPoolSelector second(pool, 5);
  second.Offer(key(0.5f, 9));
  second.Finish();
  EXPECT_EQ(pool, (std::vector<Key>{key(0.5f, 9)}));
}

TEST(ColdPoolSelectorTest, CutHeatStartsAtInfinityAndFallsWithEachShrink) {
  std::vector<Key> pool;
  ColdPoolSelector none(pool, 0);
  EXPECT_EQ(none.cut_heat(), -std::numeric_limits<float>::infinity());
  none.Offer(ColdPoolSelector::KeyOf(0.0f, 0));
  none.Finish();
  EXPECT_TRUE(pool.empty());

  ColdPoolSelector selector(pool, 2);
  EXPECT_EQ(selector.cut_heat(), std::numeric_limits<float>::infinity());
  // The largest key there is, +inf at the largest id, is still accepted.
  selector.Offer(ColdPoolSelector::KeyOf(std::numeric_limits<float>::infinity(), 0xffffffffu));
  selector.Offer(ColdPoolSelector::KeyOf(5.0f, 1));
  selector.Offer(ColdPoolSelector::KeyOf(3.0f, 2));
  EXPECT_EQ(selector.shrinks(), 0u);
  selector.Offer(ColdPoolSelector::KeyOf(-0.0f, 3));  // The fourth key shrinks to 2.
  EXPECT_EQ(selector.shrinks(), 1u);
  EXPECT_EQ(selector.cut_heat(), 3.0f);
  selector.Finish();
  EXPECT_EQ(Decode(pool), (std::vector<Entry>{{0.0f, 3}, {3.0f, 2}}));
}

// Every heat class the daemon can hold, from both zeros through the
// subnormals to +inf, at the smallest, a small and the largest page id.
std::vector<Entry> CornerEntries() {
  const float heats[] = {0.0f,
                         -0.0f,
                         std::numeric_limits<float>::denorm_min(),
                         std::numeric_limits<float>::min(),
                         1.0f,
                         std::numeric_limits<float>::max(),
                         std::numeric_limits<float>::infinity()};
  std::vector<Entry> entries;
  for (const float heat : heats) {
    for (const PageId id : {PageId{0}, PageId{1}, PageId{0xffffffff}}) {
      entries.emplace_back(heat, id);
    }
  }
  return entries;
}

TEST(SelectionKeyTest, KeyOrderIsThePairOrder) {
  const std::vector<Entry> entries = CornerEntries();
  for (const Entry& a : entries) {
    for (const Entry& b : entries) {
      SCOPED_TRACE(std::to_string(a.first) + "/" + std::to_string(a.second) + " vs " +
                   std::to_string(b.first) + "/" + std::to_string(b.second));
      const Key ka = ColdPoolSelector::KeyOf(a.first, a.second);
      const Key kb = ColdPoolSelector::KeyOf(b.first, b.second);
      EXPECT_EQ(ka < kb, a < b);
      EXPECT_EQ(ka == kb, !(a < b) && !(b < a));
    }
  }
}

TEST(SelectionKeyTest, IdAndHeatRoundTrip) {
  for (const Entry& e : CornerEntries()) {
    const Key key = ColdPoolSelector::KeyOf(e.first, e.second);
    EXPECT_EQ(ColdPoolSelector::IdOf(key), e.second);
    EXPECT_EQ(ColdPoolSelector::HeatOf(key), e.first);
    EXPECT_FALSE(std::signbit(ColdPoolSelector::HeatOf(key)));  // -0.0f comes back as +0.0f.
    EXPECT_EQ(ColdPoolSelector::IdOf(HottestFirstKeyOf(e.first, e.second)), e.second);
  }
}

TEST(SelectionKeyTest, HottestFirstKeyOrderIsTheCandidateComparator) {
  // The promotion candidates' order before the keys: heat descending, page
  // id ascending on equal heat.
  const auto hottest_first = [](const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  const std::vector<Entry> entries = CornerEntries();
  for (const Entry& a : entries) {
    for (const Entry& b : entries) {
      SCOPED_TRACE(std::to_string(a.first) + "/" + std::to_string(a.second) + " vs " +
                   std::to_string(b.first) + "/" + std::to_string(b.second));
      EXPECT_EQ(HottestFirstKeyOf(a.first, a.second) < HottestFirstKeyOf(b.first, b.second),
                hottest_first(a, b));
    }
  }
}

// The daemon's fused scan: over-commit a small platform (16384 DRAM pages,
// 4 KiB each, 12288 more on CXL), drive it with streaming or Zipf accesses,
// and check each tick's demotions against a brute-force order of the
// pre-tick DRAM pages. Sample rate 1 makes touched pages at least as hot as
// their access count, while most DRAM pages stay untouched and cold, so
// every promoted page sorts after every demoted one.
enum class Access { kStreaming, kZipf };

struct FusedScanCase {
  const char* policy;
  Access access;
};

void PrintTo(const FusedScanCase& c, std::ostream* os) {
  *os << c.policy << (c.access == Access::kStreaming ? "/streaming" : "/zipf");
}

class FusedScanTest : public ::testing::TestWithParam<FusedScanCase> {};

constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kDramPages = 16384;
constexpr uint64_t kTotalPages = kDramPages + 12288;
constexpr uint64_t kWindowPages = 5000;

topology::Platform SmallPlatform() {
  topology::PlatformOptions opt;
  opt.sockets = 1;
  opt.dram_per_socket = kDramPages * kPageBytes;
  opt.cxl_cards = 1;
  opt.cxl_card_capacity = 2 * kTotalPages * kPageBytes;
  return topology::Platform::Build(opt);
}

TEST_P(FusedScanTest, DemotionsAreTheColdestPreTickDramPages) {
  const FusedScanCase& tc = GetParam();
  const topology::Platform platform = SmallPlatform();
  PageAllocator alloc(platform, kPageBytes);
  TieringConfig cfg;
  cfg.policy = tc.policy;
  cfg.hint_fault_sample_rate = 1.0;
  // ~9765 pages per 1 s tick: a demotion batch of 1220 pages, so the pool
  // holds 4880 and a tick promoting a whole window refills it.
  cfg.promote_rate_limit_mbps = 40.0;
  TieredMemory tiering(alloc, cfg);
  auto pages = alloc.Allocate(NumaPolicy::Preferred(platform.DramNodes()), kTotalPages);
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(alloc.DramResidentCount(), kDramPages);

  Rng rng(99);
  ScrambledZipfianDistribution zipf(kTotalPages);
  const topology::NodeId* node_col = alloc.node_column();
  const auto in_dram = [&](topology::NodeId node) { return node >= 0 && alloc.IsDramNode(node); };
  uint64_t total_demoted = 0;
  uint64_t max_tick_demoted = 0;
  for (int tick = 0; tick < 12; ++tick) {
    if (tc.access == Access::kStreaming) {
      const uint64_t start = static_cast<uint64_t>(tick) * kWindowPages;
      for (uint64_t i = 0; i < kWindowPages; ++i) {
        tiering.RecordAccess((*pages)[(start + i) % kTotalPages], 8);
      }
    } else {
      for (int i = 0; i < 20000; ++i) {
        tiering.RecordAccess((*pages)[zipf.Next(rng)], 1);
      }
    }

    const uint64_t n = alloc.page_count();
    const std::vector<topology::NodeId> node_before(node_col, node_col + n);
    std::vector<float> heat_before(n);
    for (PageId id = 0; id < n; ++id) {
      heat_before[id] = tiering.Heat(id);
    }
    std::vector<Entry> dram_order;
    for (PageId id = 0; id < n; ++id) {
      if (in_dram(node_before[id])) {
        dram_order.emplace_back(heat_before[id], id);
      }
    }
    std::sort(dram_order.begin(), dram_order.end());

    const TieredMemory::TickResult r = tiering.Tick(1.0);

    std::vector<PageId> demoted;
    std::vector<Entry> promoted;
    for (PageId id = 0; id < n; ++id) {
      const bool was_dram = in_dram(node_before[id]);
      const bool is_dram = in_dram(node_col[id]);
      if (was_dram && !is_dram) {
        demoted.push_back(id);
      } else if (!was_dram && is_dram) {
        promoted.emplace_back(heat_before[id], id);
      }
    }
    SCOPED_TRACE("tick " + std::to_string(tick));
    ASSERT_EQ(demoted.size(), r.demoted_pages);
    ASSERT_EQ(promoted.size(), r.promoted_pages);
    ASSERT_LE(r.demoted_pages, dram_order.size());
    std::vector<PageId> coldest;
    for (uint64_t i = 0; i < r.demoted_pages; ++i) {
      coldest.push_back(dram_order[i].second);
    }
    std::sort(coldest.begin(), coldest.end());
    EXPECT_EQ(demoted, coldest);
    // The setup's premise: no promoted page would have sorted into the
    // demoted prefix, so the pre-tick order alone decides the demotions.
    if (r.demoted_pages > 0) {
      for (const Entry& p : promoted) {
        EXPECT_LT(dram_order[r.demoted_pages - 1], p);
      }
    }
    total_demoted += r.demoted_pages;
    max_tick_demoted = std::max(max_tick_demoted, r.demoted_pages);
  }
  EXPECT_GT(total_demoted, 0u);
  const std::string policy = tc.policy;
  if (tc.access == Access::kStreaming &&
      (policy == "hot-page-selection" || policy == "mru-balancing")) {
    // These two spend the full rate-limit budget, so their pool holds 4880
    // pages: a tick demoting more exercised the refill path, and the
    // brute-force order checked it.
    EXPECT_GT(max_tick_demoted, 4880u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FusedScanTest,
    ::testing::Values(FusedScanCase{"hot-page-selection", Access::kStreaming},
                      FusedScanCase{"hot-page-selection", Access::kZipf},
                      FusedScanCase{"mru-balancing", Access::kStreaming},
                      FusedScanCase{"mru-balancing", Access::kZipf},
                      FusedScanCase{"tpp-like", Access::kStreaming},
                      FusedScanCase{"tpp-like", Access::kZipf},
                      FusedScanCase{"adaptive-feedback", Access::kStreaming},
                      FusedScanCase{"adaptive-feedback", Access::kZipf}),
    [](const ::testing::TestParamInfo<FusedScanCase>& case_info) {
      std::string name = case_info.param.policy;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (case_info.param.access == Access::kStreaming ? "_Streaming" : "_Zipf");
    });

}  // namespace
}  // namespace cxl::os
