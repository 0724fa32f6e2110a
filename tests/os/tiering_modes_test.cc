// Promotion-mode comparison (§2.3): hot-page selection vs the earlier MRU
// NUMA-balancing patch, plus the sysctl knob plumbing.
#include <gtest/gtest.h>

#include "src/os/page_allocator.h"
#include "src/os/policy_registry.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"

namespace cxl::os {
namespace {

using topology::Platform;

class TieringModesTest : public ::testing::Test {
 protected:
  TieringModesTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(TieringModesTest, MruPromotesRecentlyTouchedRegardlessOfHeat) {
  TieringConfig cfg;
  cfg.policy = kMruBalancingPolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 4);
  ASSERT_TRUE(pages.ok());
  // One barely-touched page: below any sensible hot threshold, but recent.
  tiering.RecordAccess((*pages)[0], 1);
  const auto r = tiering.Tick(1.0);
  EXPECT_EQ(r.promoted_pages, 1u);
  EXPECT_TRUE(alloc_.IsDramNode(alloc_.NodeOf((*pages)[0])));
}

TEST_F(TieringModesTest, HotPageSelectionIgnoresLukewarmPages) {
  TieringConfig cfg;
  cfg.policy = kHotPageSelectionPolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 8.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 4);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 1);  // Lukewarm.
  EXPECT_EQ(tiering.Tick(1.0).promoted_pages, 0u);
}

TEST_F(TieringModesTest, MruWastesBudgetOnColdishPagesUnderMixedHeat) {
  // 64 pages touched once, 4 pages touched heavily; MRU with a small budget
  // promotes in scan order and misses some of the truly hot pages, while
  // hot-page selection promotes exactly the hot ones.
  auto run = [&](const char* policy) {
    PageAllocator alloc(platform_);
    TieringConfig cfg;
    cfg.policy = policy;
    cfg.hint_fault_sample_rate = 1.0;
    cfg.initial_hot_threshold = 50.0;
    cfg.dynamic_threshold = false;
    cfg.promote_rate_limit_mbps = 9.0;  // 4 pages/tick at 2 MiB pages.
    TieredMemory tiering(alloc, cfg);
    const auto cxl0 = platform_.CxlNodes()[0];
    auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 68);
    EXPECT_TRUE(pages.ok());
    for (int i = 0; i < 64; ++i) {
      tiering.RecordAccess((*pages)[static_cast<size_t>(i)], 1);
    }
    for (int i = 64; i < 68; ++i) {
      tiering.RecordAccess((*pages)[static_cast<size_t>(i)], 1000);
    }
    tiering.Tick(1.0);
    int hot_promoted = 0;
    for (int i = 64; i < 68; ++i) {
      hot_promoted += alloc.IsDramNode(alloc.NodeOf((*pages)[static_cast<size_t>(i)])) ? 1 : 0;
    }
    return hot_promoted;
  };
  EXPECT_EQ(run(kHotPageSelectionPolicyName), 4);
  EXPECT_EQ(run(kMruBalancingPolicyName), 0);  // Budget burned on scan head.
}

TEST_F(TieringModesTest, MruRecencyExpires) {
  TieringConfig cfg;
  cfg.policy = kMruBalancingPolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.promote_rate_limit_mbps = 2.0;  // 1 page/tick: leaves candidates behind.
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 3);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 5);
  }
  EXPECT_EQ(tiering.Tick(1.0).candidates, 3u);
  // No further touches: the next interval sees no recent pages.
  EXPECT_EQ(tiering.Tick(1.0).candidates, 0u);
}

TEST_F(TieringModesTest, TppPromotesOnSecondAccess) {
  TieringConfig cfg;
  cfg.policy = kTppLikePolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 2);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 1);  // First (sampled) access: not yet.
  tiering.RecordAccess((*pages)[1], 2);  // Second access: active.
  const auto r = tiering.Tick(1.0);
  EXPECT_EQ(r.promoted_pages, 1u);
  EXPECT_TRUE(alloc_.IsDramNode(alloc_.NodeOf((*pages)[1])));
  EXPECT_EQ(alloc_.NodeOf((*pages)[0]), cxl0);
}

TEST_F(TieringModesTest, TppIgnoresRateLimit) {
  // TPP predates the promote-rate-limit mechanism: a tiny configured limit
  // does not bound it (the paper's bandwidth-intensive failure mode).
  auto run = [&](const char* policy) {
    PageAllocator alloc(platform_);
    TieringConfig cfg;
    cfg.policy = policy;
    cfg.hint_fault_sample_rate = 1.0;
    cfg.initial_hot_threshold = 1.0;
    cfg.dynamic_threshold = false;
    cfg.promote_rate_limit_mbps = 4.0;  // ~2 pages/s at 2 MiB.
    TieredMemory tiering(alloc, cfg);
    const auto cxl0 = platform_.CxlNodes()[0];
    auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 256);
    EXPECT_TRUE(pages.ok());
    for (PageId id : *pages) {
      tiering.RecordAccess(id, 4);
    }
    return tiering.Tick(1.0).promoted_pages;
  };
  EXPECT_LE(run(kHotPageSelectionPolicyName), 2u);
  EXPECT_EQ(run(kTppLikePolicyName), 256u);  // Unbounded.
}

TEST_F(TieringModesTest, TppChurnsUnderStreaming) {
  // A streaming scan (every page touched twice, window advancing) makes TPP
  // migrate the entire stream, burning bandwidth — the degradation the
  // paper observed with bandwidth-intensive workloads.
  PageAllocator alloc(platform_);
  TieringConfig cfg;
  cfg.policy = kTppLikePolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  TieredMemory tiering(alloc, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 512);
  ASSERT_TRUE(pages.ok());
  double migrated = 0.0;
  for (int window = 0; window < 4; ++window) {
    for (int i = 0; i < 128; ++i) {
      tiering.RecordAccess((*pages)[static_cast<size_t>(window * 128 + i)], 3);
    }
    migrated += tiering.Tick(1.0).migrated_bytes;
  }
  // Everything streamed got promoted: 512 pages x 2 MiB.
  EXPECT_GE(migrated, 512.0 * 2e6);
}

TEST_F(TieringModesTest, ConfigPolicyNameSelectsTheDaemonsPolicy) {
  // Empty selects hot-page-selection, the patch the paper's experiments use.
  EXPECT_STREQ(TieringConfig{}.PolicyName(), kHotPageSelectionPolicyName);
  EXPECT_STREQ(TieredMemory(alloc_, TieringConfig{}).policy().name(),
               kHotPageSelectionPolicyName);
  PageAllocator other(platform_);
  TieringConfig cfg;
  cfg.policy = kMruBalancingPolicyName;
  EXPECT_STREQ(TieredMemory(other, cfg).policy().name(), kMruBalancingPolicyName);
}

}  // namespace
}  // namespace cxl::os
