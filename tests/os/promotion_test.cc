// Promotion-daemon behaviour: hot pages migrate up, the rate limit bounds
// migration volume, and the dynamic threshold adapts — including the
// low-locality "thrashing" regime behind the paper's Spark result (§4.2.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/os/page_allocator.h"
#include "src/os/region.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"
#include "src/util/rng.h"

namespace cxl::os {
namespace {

using topology::Platform;

class PromotionTest : public ::testing::Test {
 protected:
  PromotionTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(PromotionTest, HotCxlPagesGetPromoted) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 10);
  ASSERT_TRUE(pages.ok());
  // Touch half the pages hot.
  for (int i = 0; i < 5; ++i) {
    tiering.RecordAccess((*pages)[static_cast<size_t>(i)], 100);
  }
  const auto result = tiering.Tick(1.0);
  EXPECT_EQ(result.promoted_pages, 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(alloc_.IsDramNode(alloc_.NodeOf((*pages)[static_cast<size_t>(i)])));
  }
  for (int i = 5; i < 10; ++i) {
    EXPECT_EQ(alloc_.NodeOf((*pages)[static_cast<size_t>(i)]), cxl0);
  }
  EXPECT_EQ(alloc_.counters().pgpromote_success, 5u);
}

TEST_F(PromotionTest, RateLimitBoundsPromotionVolume) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  cfg.promote_rate_limit_mbps = 20.0;  // 20 MB/s -> 10 pages/s at 2 MiB.
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 100);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 100);
  }
  const auto result = tiering.Tick(1.0);
  EXPECT_LE(result.promoted_pages, 10u);
  EXPECT_GT(alloc_.counters().promote_rate_limited, 0u);
}

TEST_F(PromotionTest, ColdPagesStayPut) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 50.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 10);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 10);  // Below threshold.
  const auto result = tiering.Tick(1.0);
  EXPECT_EQ(result.promoted_pages, 0u);
  EXPECT_EQ(result.candidates, 0u);
}

TEST_F(PromotionTest, DynamicThresholdRisesUnderCandidateFlood) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 2.0;
  cfg.dynamic_threshold = true;
  cfg.promote_rate_limit_mbps = 20.0;  // Budget 10 pages/tick.
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 500);
  ASSERT_TRUE(pages.ok());
  const double t0 = tiering.hot_threshold();
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 50);
  }
  tiering.Tick(1.0);
  EXPECT_GT(tiering.hot_threshold(), t0);
}

TEST_F(PromotionTest, DynamicThresholdFallsWhenQuiet) {
  TieringConfig cfg;
  cfg.initial_hot_threshold = 64.0;
  cfg.dynamic_threshold = true;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 10);
  ASSERT_TRUE(pages.ok());
  tiering.Tick(1.0);
  EXPECT_LT(tiering.hot_threshold(), 64.0);
}

TEST_F(PromotionTest, PromotionIntoFullDramTriggersDemotion) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  // Fill all DRAM with cold pages.
  std::vector<topology::NodeId> dram = platform_.DramNodes();
  for (auto n : dram) {
    auto fill = alloc_.Allocate(NumaPolicy::Bind({n}), alloc_.TotalPages(n));
    ASSERT_TRUE(fill.ok());
  }
  const auto cxl0 = platform_.CxlNodes()[0];
  auto hot = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 4);
  ASSERT_TRUE(hot.ok());
  for (PageId id : *hot) {
    tiering.RecordAccess(id, 1000);
  }
  const auto result = tiering.Tick(1.0);
  EXPECT_GT(result.promoted_pages, 0u);
  EXPECT_GT(result.demoted_pages, 0u);  // Cold DRAM pages made room.
  EXPECT_GT(alloc_.counters().pgdemote, 0u);
}

TEST_F(PromotionTest, ZipfianLocalityConverges) {
  // KeyDB-like behaviour (§4.1.2): with strong locality, the daemon settles
  // — after a few ticks the hot set lives in DRAM and migration stops.
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 200);
  ASSERT_TRUE(pages.ok());
  double late_migrated = 0.0;
  for (int tick = 0; tick < 10; ++tick) {
    // Stable hot set: first 20 pages are always the hot ones.
    for (int i = 0; i < 20; ++i) {
      tiering.RecordAccess((*pages)[static_cast<size_t>(i)], 100);
    }
    const auto r = tiering.Tick(1.0);
    if (tick >= 3) {
      late_migrated += r.migrated_bytes;
    }
  }
  EXPECT_EQ(late_migrated, 0.0);  // Settled: no residual churn.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(alloc_.IsDramNode(alloc_.NodeOf((*pages)[static_cast<size_t>(i)])));
  }
}

TEST_F(PromotionTest, LowLocalityThrashes) {
  // Spark-like behaviour (§4.2.2): the hot set shifts every interval, so the
  // daemon keeps migrating without ever settling — sustained migration
  // traffic ("considerable amount of thrashing behavior within the kernel").
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = true;
  TieredMemory tiering(alloc_, cfg);
  // DRAM nearly full so promotions force demotions.
  for (auto n : platform_.DramNodes()) {
    auto fill = alloc_.Allocate(NumaPolicy::Bind({n}), alloc_.TotalPages(n) - 8);
    ASSERT_TRUE(fill.ok());
  }
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 400);
  ASSERT_TRUE(pages.ok());
  Rng rng(1);
  double total_migrated = 0.0;
  for (int tick = 0; tick < 10; ++tick) {
    // Shifting window of "hot" pages — no reuse across intervals.
    for (int i = 0; i < 40; ++i) {
      const size_t idx = (static_cast<size_t>(tick) * 40 + static_cast<size_t>(i)) % 400;
      tiering.RecordAccess((*pages)[idx], 100);
    }
    total_migrated += tiering.Tick(1.0).migrated_bytes;
  }
  // Sustained churn: migration traffic in the late ticks too.
  EXPECT_GT(total_migrated, 50.0 * 2e6);  // > 50 pages' worth overall.
  EXPECT_GT(alloc_.counters().pgdemote, 0u);
}

TEST_F(PromotionTest, SoaScanMatchesAosReferencePromotionOrder) {
  // The promotion scan streams the packed SoA heat/node columns; this pins
  // its selection to an AoS-style reference that walks pages one PageView at
  // a time (the old struct layout's access pattern). The heat pattern
  // includes exact float ties so the budget cuts *through* a tie group —
  // the (heat desc, id asc) order must decide identically in both worlds.
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;  // heat == touch count, exactly.
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  cfg.promote_rate_limit_mbps = 26.0;  // floor(26e6 / 2 MiB) = 12 pages/tick.
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 64);
  ASSERT_TRUE(pages.ok());
  // Golden heat pattern: heats 4..11 repeating, so each heat level is an
  // 8-way id tie and the 12-page budget splits the second-hottest tier.
  for (size_t i = 0; i < pages->size(); ++i) {
    tiering.RecordAccess((*pages)[i], 4 + i % 8);
  }

  // AoS-style reference: per-page record access through the view API.
  std::vector<std::pair<float, PageId>> reference;
  for (PageId id = 0; id < alloc_.page_count(); ++id) {
    const auto p = alloc_.page(id);
    if (p.node >= 0 && !alloc_.IsDramNode(p.node) &&
        tiering.Heat(id) >= static_cast<float>(tiering.hot_threshold())) {
      reference.emplace_back(tiering.Heat(id), id);
    }
  }
  std::sort(reference.begin(), reference.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  const auto result = tiering.Tick(1.0);
  EXPECT_EQ(result.candidates, reference.size());
  EXPECT_EQ(result.promoted_pages, 12u);
  // Exactly the first 12 reference pages promoted, nothing else.
  for (size_t i = 0; i < reference.size(); ++i) {
    const bool promoted = alloc_.IsDramNode(alloc_.NodeOf(reference[i].second));
    EXPECT_EQ(promoted, i < 12) << "reference rank " << i;
  }
}

}  // namespace
}  // namespace cxl::os
