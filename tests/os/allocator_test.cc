#include "src/os/page_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/check/invariants.h"
#include "src/os/numa_policy.h"
#include "src/os/page_runs.h"
#include "src/os/region.h"
#include "src/topology/platform.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cxl::os {
namespace {

using namespace cxl::literals;
using topology::Platform;

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(AllocatorTest, CapacityFromPlatform) {
  // Socket 0 DRAM: 512 GiB at 2 MiB pages.
  const auto dram0 = platform_.DramNodes(0)[0];
  EXPECT_EQ(alloc_.TotalPages(dram0), (512_GiB) / (2_MiB));
  const auto cxl0 = platform_.CxlNodes()[0];
  EXPECT_EQ(alloc_.TotalPages(cxl0), (256_GiB) / (2_MiB));
}

TEST_F(AllocatorTest, BindAllocatesOnBoundNode) {
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 100);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    EXPECT_EQ(alloc_.NodeOf(id), cxl0);
  }
  EXPECT_EQ(alloc_.UsedPages(cxl0), 100u);
}

TEST_F(AllocatorTest, BindFailsWhenFull) {
  const auto cxl0 = platform_.CxlNodes()[0];
  const uint64_t cap = alloc_.TotalPages(cxl0);
  auto all = alloc_.Allocate(NumaPolicy::Bind({cxl0}), cap);
  ASSERT_TRUE(all.ok());
  auto more = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 1);
  EXPECT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kResourceExhausted);
  // Failure must not leak pages.
  EXPECT_EQ(alloc_.FreePages(cxl0), 0u);
  alloc_.Free(*all);
  EXPECT_EQ(alloc_.FreePages(cxl0), cap);
}

TEST_F(AllocatorTest, PreferredFallsBackWhenFull) {
  const auto cxl0 = platform_.CxlNodes()[0];
  const uint64_t cap = alloc_.TotalPages(cxl0);
  auto fill = alloc_.Allocate(NumaPolicy::Bind({cxl0}), cap);
  ASSERT_TRUE(fill.ok());
  auto extra = alloc_.Allocate(NumaPolicy::Preferred({cxl0}), 10);
  ASSERT_TRUE(extra.ok());
  for (PageId id : *extra) {
    EXPECT_NE(alloc_.NodeOf(id), cxl0);  // Fell back elsewhere.
  }
}

TEST_F(AllocatorTest, WeightedInterleaveShares) {
  const auto dram0 = platform_.DramNodes(0)[0];
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::WeightedInterleave({dram0}, {cxl0}, 3, 1), 4000);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(alloc_.UsedPages(dram0), 3000u);
  EXPECT_EQ(alloc_.UsedPages(cxl0), 1000u);
}

TEST_F(AllocatorTest, FreeRecyclesIds) {
  auto a = alloc_.Allocate(NumaPolicy::Bind({0}), 10);
  ASSERT_TRUE(a.ok());
  alloc_.Free(*a);
  auto b = alloc_.Allocate(NumaPolicy::Bind({0}), 10);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(alloc_.allocated_pages(), 10u);
  EXPECT_EQ(alloc_.page_count(), 10u);  // Slots recycled, not grown.
}

TEST_F(AllocatorTest, MovePageUpdatesAccounting) {
  const auto dram0 = platform_.DramNodes(0)[0];
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({dram0}), 1);
  ASSERT_TRUE(pages.ok());
  ASSERT_TRUE(alloc_.MovePage((*pages)[0], cxl0).ok());
  EXPECT_EQ(alloc_.NodeOf((*pages)[0]), cxl0);
  EXPECT_EQ(alloc_.UsedPages(dram0), 0u);
  EXPECT_EQ(alloc_.UsedPages(cxl0), 1u);
}

TEST_F(AllocatorTest, MoveToFullNodeFails) {
  const auto cxl0 = platform_.CxlNodes()[0];
  auto fill = alloc_.Allocate(NumaPolicy::Bind({cxl0}), alloc_.TotalPages(cxl0));
  ASSERT_TRUE(fill.ok());
  auto one = alloc_.Allocate(NumaPolicy::Bind({0}), 1);
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(alloc_.MovePage((*one)[0], cxl0).ok());
  EXPECT_EQ(alloc_.counters().migrate_failed, 1u);
}

TEST_F(AllocatorTest, CountersTrackAllocFree) {
  auto pages = alloc_.Allocate(NumaPolicy::Bind({0}), 5);
  ASSERT_TRUE(pages.ok());
  alloc_.Free(*pages);
  EXPECT_EQ(alloc_.counters().pgalloc, 5u);
  EXPECT_EQ(alloc_.counters().pgfree, 5u);
}

TEST_F(AllocatorTest, DramFreeFraction) {
  EXPECT_NEAR(alloc_.DramFreeFraction(), 1.0, 1e-12);
  const auto dram0 = platform_.DramNodes(0)[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({dram0}), alloc_.TotalPages(dram0));
  ASSERT_TRUE(pages.ok());
  EXPECT_NEAR(alloc_.DramFreeFraction(), 0.5, 1e-12);  // One of two sockets full.
}

TEST(RegionTest, AllocateAndShares) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  const auto dram0 = platform.DramNodes(0)[0];
  const auto cxl0 = platform.CxlNodes()[0];
  auto region = MemoryRegion::Allocate(
      alloc, NumaPolicy::WeightedInterleave({dram0}, {cxl0}, 1, 1), 1_GiB);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->page_count(), 512u);
  EXPECT_NEAR(region->DramShare(), 0.5, 1e-12);
  const auto shares = region->NodeShares();
  EXPECT_NEAR(shares[static_cast<size_t>(dram0)], 0.5, 1e-12);
  EXPECT_NEAR(shares[static_cast<size_t>(cxl0)], 0.5, 1e-12);
  region->Free();
  EXPECT_EQ(alloc.allocated_pages(), 0u);
}

// NodeShares reads the allocator's per-node counts while the region holds
// every allocated page, and walks its pages while another region holds
// some: both give count / size, bit for bit.
TEST(RegionTest, SharesFromNodeCountsEqualTheWalk) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  const auto dram0 = platform.DramNodes(0)[0];
  const auto cxl0 = platform.CxlNodes()[0];
  auto region = MemoryRegion::Allocate(
      alloc, NumaPolicy::WeightedInterleave({dram0}, {cxl0}, 1, 2), 1537_MiB);
  ASSERT_TRUE(region.ok());
  ASSERT_EQ(region->page_count(), 769u);
  std::vector<double> want(platform.nodes().size(), 0.0);
  for (size_t i = 0; i < region->page_count(); ++i) {
    want[static_cast<size_t>(alloc.NodeOf(region->PageAtIndex(i)))] += 1.0;
  }
  for (double& s : want) {
    s /= 769.0;
  }
  EXPECT_EQ(region->NodeShares(), want);  // From the counts.
  auto other = MemoryRegion::Allocate(alloc, NumaPolicy::Bind({dram0}), 10_MiB);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(region->NodeShares(), want);  // By the walk.
  other->Free();
  EXPECT_EQ(region->NodeShares(), want);
}

TEST(RegionTest, RoundsUpPartialPage) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  auto region = MemoryRegion::Allocate(alloc, NumaPolicy::Bind({0}), 3_MiB);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->page_count(), 2u);
}

TEST(PageRunsTest, AppendMergesRunsInEitherDirection) {
  PageRuns runs;
  for (const PageId id : {5, 6, 7, 3, 2, 1, 0, 9}) {
    runs.push_back(id);
  }
  ASSERT_EQ(runs.runs().size(), 3u);
  EXPECT_FALSE(runs.runs()[0].descending);
  EXPECT_TRUE(runs.runs()[1].descending);
  EXPECT_EQ(std::vector<PageId>(runs.begin(), runs.end()),
            (std::vector<PageId>{5, 6, 7, 3, 2, 1, 0, 9}));
  EXPECT_EQ(runs[4], 2u);
  EXPECT_EQ(runs[7], 9u);
  // Popping five ids hands them back last first.
  const PageRuns popped = runs.TakeBack(5);
  EXPECT_EQ(std::vector<PageId>(popped.begin(), popped.end()),
            (std::vector<PageId>{9, 0, 1, 2, 3}));
  EXPECT_EQ(std::vector<PageId>(runs.begin(), runs.end()), (std::vector<PageId>{5, 6, 7}));
}

// ForEachSpan over every position range of a recycled sequence: each call
// reports the piece of one run inside [begin, end), in sequence order, as
// its lowest id and its length, and the pieces cover the range exactly.
TEST(PageRunsTest, ForEachSpanCoversExactlyThePositions) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  // Four regions, three of them freed in an order that interleaves their
  // runs on the free stack, then one allocation over the recycled ids and
  // fresh ones: descending runs (freed runs popped last first), an
  // ascending one (a freed descending run) and the fresh ascending tail.
  auto a = alloc.Allocate(NumaPolicy::Bind({0}), 10);
  auto b = alloc.Allocate(NumaPolicy::Bind({0}), 6);
  auto c = alloc.Allocate(NumaPolicy::Bind({0}), 8);
  auto d = alloc.Allocate(NumaPolicy::Bind({0}), 5);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  alloc.Free(*a);
  alloc.Free(*c);
  auto e = alloc.Allocate(NumaPolicy::Bind({0}), 4);  // c's top ids, descending.
  ASSERT_TRUE(e.ok());
  alloc.Free(*e);
  alloc.Free(*b);
  auto seq = alloc.Allocate(NumaPolicy::Bind({0}), 40);
  ASSERT_TRUE(seq.ok());
  const std::vector<PageRuns::Run>& runs = seq->runs();
  const auto descending = std::count_if(runs.begin(), runs.end(),
                                        [](const PageRuns::Run& r) { return r.descending; });
  ASSERT_GE(descending, 2);
  ASSERT_GE(static_cast<long>(runs.size()) - descending, 2);

  const std::vector<PageId> ids(seq->begin(), seq->end());
  // The run holding each position.
  std::vector<size_t> run_of;
  for (size_t r = 0; r < runs.size(); ++r) {
    run_of.insert(run_of.end(), runs[r].count, r);
  }
  ASSERT_EQ(run_of.size(), ids.size());
  using Span = std::pair<PageId, uint64_t>;
  for (uint64_t begin = 0; begin <= ids.size(); ++begin) {
    for (uint64_t end = begin; end <= ids.size(); ++end) {
      std::vector<Span> expected;
      for (uint64_t i = begin; i < end; ++i) {
        if (i == begin || run_of[i] != run_of[i - 1]) {
          expected.emplace_back(ids[i], 0);
        }
        expected.back().first = std::min(expected.back().first, ids[i]);
        ++expected.back().second;
      }
      std::vector<Span> got;
      seq->ForEachSpan(begin, end, [&](PageId first, uint64_t count) {
        got.emplace_back(first, count);
      });
      ASSERT_EQ(got, expected) << "[" << begin << ", " << end << ")";
      // A span is a set of consecutive ids: exactly those of its positions.
      uint64_t i = begin;
      for (const auto& [first, count] : got) {
        std::vector<PageId> covered(ids.begin() + static_cast<std::ptrdiff_t>(i),
                                    ids.begin() + static_cast<std::ptrdiff_t>(i + count));
        std::sort(covered.begin(), covered.end());
        for (uint64_t k = 0; k < count; ++k) {
          EXPECT_EQ(covered[k], first + k) << "[" << begin << ", " << end << ")";
        }
        i += count;
      }
    }
  }
}

// A request that cannot be placed fails before any column grows: the page
// slots, counters, per-node counts and free stack are as before the call.
// An 8 TiB request used to grow every column by its size before failing.
TEST_F(AllocatorTest, FailedRequestLeavesNoTrace) {
  const auto cxl0 = platform_.CxlNodes()[0];
  auto live = alloc_.Allocate(NumaPolicy::Interleave(platform_.DramNodes()), 1000);
  ASSERT_TRUE(live.ok());
  alloc_.Free(live->TakeBack(300));
  const uint64_t pages = alloc_.page_count();
  const VmCounters before = alloc_.counters();
  const std::vector<PageId> stack(alloc_.free_runs().begin(), alloc_.free_runs().end());
  std::vector<uint64_t> used;
  for (const auto& n : platform_.nodes()) {
    used.push_back(alloc_.UsedPages(n.id));
  }
  const auto unchanged = [&] {
    EXPECT_EQ(alloc_.page_count(), pages);
    EXPECT_EQ(alloc_.allocated_pages(), 700u);
    EXPECT_EQ(alloc_.counters().pgalloc, before.pgalloc);
    EXPECT_EQ(alloc_.counters().pgfree, before.pgfree);
    EXPECT_EQ(std::vector<PageId>(alloc_.free_runs().begin(), alloc_.free_runs().end()), stack);
    for (const auto& n : platform_.nodes()) {
      EXPECT_EQ(alloc_.UsedPages(n.id), used[static_cast<size_t>(n.id)]);
    }
    const std::vector<std::string> audit = check::AllocatorInvariantViolations(alloc_);
    EXPECT_TRUE(audit.empty()) << audit.front();
  };
  const uint64_t huge = 8_TiB / alloc_.page_bytes();
  for (const NumaPolicy& policy :
       {NumaPolicy::Interleave(platform_.DramNodes()), NumaPolicy::Preferred({cxl0}),
        NumaPolicy::Bind(platform_.DramNodes())}) {
    const auto failed = alloc_.Allocate(policy, huge);
    ASSERT_FALSE(failed.ok()) << "mode " << static_cast<int>(policy.mode());
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
    unchanged();
  }
  // One page more than the bound node holds fails, a bound node listed
  // twice included; unbound, the same request falls back and succeeds.
  const uint64_t over = alloc_.FreePages(cxl0) + 1;
  EXPECT_FALSE(alloc_.Allocate(NumaPolicy::Bind({cxl0}), over).ok());
  EXPECT_FALSE(alloc_.Allocate(NumaPolicy::Bind({cxl0, cxl0}), over).ok());
  unchanged();
  EXPECT_TRUE(alloc_.Allocate(NumaPolicy::Preferred({cxl0}), over).ok());
}

TEST_F(AllocatorTest, FreedRegionComesBackAsOneReversedRun) {
  auto a = alloc_.Allocate(NumaPolicy::Bind({0}), 1000);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->runs().size(), 1u);
  alloc_.Free(*a);
  auto b = alloc_.Allocate(NumaPolicy::Bind({0}), 1000);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->runs().size(), 1u);
  EXPECT_TRUE(b->runs()[0].descending);
  EXPECT_EQ((*b)[0], 999u);
  EXPECT_EQ((*b)[999], 0u);
}

// A per-id model of the allocator: one free-list stack entry per id, one
// NodeForIndex call per page. The run-based allocator must match it id for
// id on every call. A request that runs out of room part way is rolled
// back whole: ids, free-list order, counts and counters as before the call.
class ReferenceAllocator {
 public:
  ReferenceAllocator(const Platform& platform, uint64_t page_bytes) : platform_(platform) {
    for (const auto& n : platform.nodes()) {
      capacity.push_back(n.capacity_bytes / page_bytes);
    }
    used.assign(capacity.size(), 0);
  }

  std::optional<std::vector<PageId>> Allocate(const NumaPolicy& policy, uint64_t count) {
    const std::vector<topology::NodeId> saved_node = node;
    const std::vector<PageId> saved_free_list = free_list;
    const std::vector<uint64_t> saved_used = used;
    const uint64_t saved_allocated = allocated;
    std::vector<PageId> out;
    for (uint64_t i = 0; i < count; ++i) {
      topology::NodeId target = policy.NodeForIndex(i);
      if (FreeOn(target) == 0) {
        target = -1;
        if (policy.mode() == PolicyMode::kBind) {
          for (const topology::NodeId n : policy.nodes()) {
            if (FreeOn(n) > 0) {
              target = n;
              break;
            }
          }
        } else {
          target = Fallback();
        }
        if (target < 0) {
          node = saved_node;
          free_list = saved_free_list;
          used = saved_used;
          allocated = saved_allocated;
          return std::nullopt;
        }
      }
      PageId id;
      if (!free_list.empty()) {
        id = free_list.back();
        free_list.pop_back();
        node[id] = target;
      } else {
        id = node.size();
        node.push_back(target);
      }
      ++used[static_cast<size_t>(target)];
      ++allocated;
      out.push_back(id);
    }
    pgalloc += count;
    return out;
  }

  void Free(const std::vector<PageId>& pages) {
    for (const PageId id : pages) {
      --used[static_cast<size_t>(node[id])];
      node[id] = -1;
      free_list.push_back(id);
      --allocated;
      ++pgfree;
    }
  }

  bool MovePage(PageId id, topology::NodeId target) {
    if (node[id] == target) {
      return true;
    }
    if (FreeOn(target) == 0) {
      ++migrate_failed;
      return false;
    }
    --used[static_cast<size_t>(node[id])];
    ++used[static_cast<size_t>(target)];
    node[id] = target;
    return true;
  }

  std::vector<topology::NodeId> node;
  std::vector<PageId> free_list;
  std::vector<uint64_t> used;
  std::vector<uint64_t> capacity;
  uint64_t allocated = 0;
  uint64_t pgalloc = 0;
  uint64_t pgfree = 0;
  uint64_t migrate_failed = 0;

 private:
  uint64_t FreeOn(topology::NodeId n) const {
    return capacity[static_cast<size_t>(n)] - used[static_cast<size_t>(n)];
  }

  topology::NodeId Fallback() const {
    topology::NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform_.nodes()) {
      if (n.kind == topology::NodeKind::kDram && FreeOn(n.id) > best_free) {
        best_free = FreeOn(n.id);
        best = n.id;
      }
    }
    if (best >= 0) {
      return best;
    }
    for (const auto& n : platform_.nodes()) {
      if (n.kind == topology::NodeKind::kCxl && FreeOn(n.id) > 0) {
        return n.id;
      }
    }
    return -1;
  }

  const Platform& platform_;
};

// Seeded random Allocate / Free / MovePage sequences on a 384-page machine
// (4 GiB pages), so bind-full and machine-full failures, partial recycling
// and multi-run regions are all common. The last seeds use 256 MiB pages
// (6,144 of them), where batches of every pattern span whole words of the
// residency bitsets. The allocator audit runs after every step.
TEST(PageRunsAllocatorTest, MatchesPerIdReferenceOnRandomSequences) {
  const Platform platform = Platform::CxlServer(false);
  const std::vector<topology::NodeId> dram = platform.DramNodes();
  const std::vector<topology::NodeId> cxl = platform.CxlNodes();
  const std::vector<NumaPolicy> policies = {
      NumaPolicy::Bind({dram[0]}),
      NumaPolicy::Bind({cxl[0], cxl[1]}),
      NumaPolicy::Preferred({cxl[1]}),
      NumaPolicy::Preferred({dram[1]}),
      NumaPolicy::Interleave({dram[0], cxl[0], cxl[1]}),
      NumaPolicy::WeightedInterleave(dram, cxl, 3, 1),
      NumaPolicy::WeightedInterleave({dram[1]}, {cxl[0]}, 1, 2),
  };
  int failures = 0;
  int multi_run = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    const uint64_t page_bytes = seed <= 12 ? 4_GiB : 256_MiB;
    PageAllocator alloc(platform, page_bytes);
    ReferenceAllocator ref(platform, page_bytes);
    std::vector<PageId> live;  // Allocated ids, in allocation order.
    for (int step = 0; step < 400; ++step) {
      const uint64_t op = rng.NextBounded(10);
      if (op < 5) {
        const NumaPolicy& policy = policies[rng.NextBounded(policies.size())];
        const uint64_t count = 1 + rng.NextBounded(rng.NextBool(0.2) ? 200 : 40);
        auto got = alloc.Allocate(policy, count);
        const auto want = ref.Allocate(policy, count);
        ASSERT_EQ(got.ok(), want.has_value()) << "seed " << seed << " step " << step;
        if (!want.has_value()) {
          EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
          ++failures;
        } else {
          ASSERT_EQ(std::vector<PageId>(got->begin(), got->end()), *want)
              << "seed " << seed << " step " << step;
          for (uint64_t i = 0; i < want->size(); ++i) {
            ASSERT_EQ((*got)[i], (*want)[i]);
          }
          multi_run += got->runs().size() > 1 ? 1 : 0;
          live.insert(live.end(), want->begin(), want->end());
        }
      } else if (op < 8 && !live.empty()) {
        // A hand-picked subset: a slice, every other id of a slice, a
        // reversed slice, or scattered picks.
        const uint64_t begin = rng.NextBounded(live.size());
        const uint64_t len = 1 + rng.NextBounded(std::min<uint64_t>(live.size() - begin, 80));
        std::vector<PageId> picked;
        std::vector<PageId> kept(live.begin(), live.begin() + static_cast<ptrdiff_t>(begin));
        const uint64_t shape = rng.NextBounded(4);
        for (uint64_t i = begin; i < begin + len; ++i) {
          const bool take =
              shape == 1 ? (i - begin) % 2 == 0 : (shape != 3 || rng.NextBool(0.5));
          (take ? picked : kept).push_back(live[i]);
        }
        kept.insert(kept.end(), live.begin() + static_cast<ptrdiff_t>(begin + len), live.end());
        if (shape == 2) {
          std::reverse(picked.begin(), picked.end());
        }
        alloc.Free(PageRuns(picked.begin(), picked.end()));
        ref.Free(picked);
        live = kept;
      } else if (!live.empty()) {
        const PageId id = live[rng.NextBounded(live.size())];
        const auto target = static_cast<topology::NodeId>(rng.NextBounded(platform.nodes().size()));
        ASSERT_EQ(alloc.MovePage(id, target).ok(), ref.MovePage(id, target));
      }
      ASSERT_EQ(alloc.page_count(), ref.node.size()) << "seed " << seed << " step " << step;
      ASSERT_TRUE(std::equal(ref.node.begin(), ref.node.end(), alloc.node_column()))
          << "seed " << seed << " step " << step;
      for (const auto& n : platform.nodes()) {
        ASSERT_EQ(alloc.UsedPages(n.id), ref.used[static_cast<size_t>(n.id)]);
      }
      ASSERT_EQ(alloc.allocated_pages(), ref.allocated);
      ASSERT_EQ(alloc.counters().pgalloc, ref.pgalloc);
      ASSERT_EQ(alloc.counters().pgfree, ref.pgfree);
      ASSERT_EQ(alloc.counters().migrate_failed, ref.migrate_failed);
      const std::vector<std::string> audit = check::AllocatorInvariantViolations(alloc);
      ASSERT_TRUE(audit.empty()) << "seed " << seed << " step " << step << ": " << audit.front();
    }
  }
  // The sequences reached the paths they are meant to cover.
  EXPECT_GT(failures, 50);
  EXPECT_GT(multi_run, 50);
}

}  // namespace
}  // namespace cxl::os
