// Migration accounting: migrated bytes are reported so application models
// can charge them against memory bandwidth (migration is not free — the
// root of the Hot-Promote overhead in §4.2).
#include <gtest/gtest.h>

#include "src/os/page_allocator.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"

namespace cxl::os {
namespace {

using topology::Platform;

TEST(MigrationTest, MigratedBytesMatchPromotedPages) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc, cfg);
  const auto cxl0 = platform.CxlNodes()[0];
  auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 8);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 100);
  }
  const auto r = tiering.Tick(1.0);
  EXPECT_EQ(r.promoted_pages, 8u);
  EXPECT_DOUBLE_EQ(r.migrated_bytes, 8.0 * static_cast<double>(alloc.page_bytes()));
}

TEST(MigrationTest, VmCountersAggregate) {
  VmCounters c;
  c.pgpromote_success = 10;
  c.pgdemote = 4;
  EXPECT_EQ(c.MigratedPages(), 14u);
}

TEST(MigrationTest, TickWithNoPagesIsNoop) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  TieredMemory tiering(alloc, TieringConfig{});
  const auto r = tiering.Tick(1.0);
  EXPECT_EQ(r.promoted_pages, 0u);
  EXPECT_EQ(r.demoted_pages, 0u);
  EXPECT_DOUBLE_EQ(r.migrated_bytes, 0.0);
}

TEST(MigrationTest, NoCxlPlatformNeverMigrates) {
  topology::PlatformOptions no_cxl;
  no_cxl.cxl_cards = 0;
  Platform platform = Platform::Build(no_cxl);
  PageAllocator alloc(platform);
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  TieredMemory tiering(alloc, cfg);
  auto pages = alloc.Allocate(NumaPolicy::Bind({0}), 16);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 1000);
  }
  const auto r = tiering.Tick(1.0);
  EXPECT_EQ(r.promoted_pages, 0u);  // Nothing on a low tier.
  EXPECT_EQ(alloc.CxlResidentCount(), 0u);
}

TEST(MigrationTest, RepeatedTicksRespectCumulativeBudget) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 1.0;
  cfg.dynamic_threshold = false;
  cfg.promote_rate_limit_mbps = 8.0;  // 4 pages/s at 2 MiB pages.
  TieredMemory tiering(alloc, cfg);
  const auto cxl0 = platform.CxlNodes()[0];
  auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 64);
  ASSERT_TRUE(pages.ok());
  uint64_t promoted = 0;
  for (int t = 0; t < 4; ++t) {
    for (PageId id : *pages) {
      if (alloc.NodeOf(id) == cxl0) {
        tiering.RecordAccess(id, 100);
      }
    }
    promoted += tiering.Tick(1.0).promoted_pages;
  }
  EXPECT_LE(promoted, 16u);  // 4 ticks x 4 pages.
  EXPECT_GE(promoted, 12u);
}

}  // namespace
}  // namespace cxl::os
