#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/fault/fault.h"
#include "src/os/page_allocator.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"

namespace cxl::os {
namespace {

using topology::Platform;

class HotnessTest : public ::testing::Test {
 protected:
  HotnessTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(HotnessTest, RecordAccessAccumulatesSampledHeat) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 0.1;
  TieredMemory tiering(alloc_, cfg);
  auto pages = alloc_.Allocate(NumaPolicy::Bind({0}), 1);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 1000);
  EXPECT_NEAR(tiering.Heat((*pages)[0]), 100.0, 1.0);
  EXPECT_GE(alloc_.counters().numa_hint_faults, 100u);
}

TEST_F(HotnessTest, HeatDecaysEachTick) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.heat_decay = 0.5;
  TieredMemory tiering(alloc_, cfg);
  auto pages = alloc_.Allocate(NumaPolicy::Bind({0}), 1);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 100);
  tiering.Tick(1.0);
  EXPECT_NEAR(tiering.Heat((*pages)[0]), 50.0, 0.5);
  tiering.Tick(1.0);
  EXPECT_NEAR(tiering.Heat((*pages)[0]), 25.0, 0.5);
}

TEST_F(HotnessTest, TopTierClassification) {
  for (const auto& n : platform_.nodes()) {
    if (n.kind == topology::NodeKind::kDram) {
      EXPECT_TRUE(alloc_.IsDramNode(n.id));
    } else {
      EXPECT_FALSE(alloc_.IsDramNode(n.id));
    }
  }
}

TEST_F(HotnessTest, LowTierPagesCount) {
  TieredMemory tiering(alloc_, TieringConfig{});
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 42);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(alloc_.CxlResidentCount(), 42u);
}

// The heat column exists only under a daemon: an allocator no daemon tracks
// stores none through Allocate, Free and MovePage. A daemon built over it
// sizes the column to page_count() at heat 0, allocation keeps it at
// page_count(), and recycled ids come back at heat 0.
TEST_F(HotnessTest, HeatColumnExistsOnlyUnderADaemon) {
  const auto cxl0 = platform_.CxlNodes()[0];
  auto first = alloc_.Allocate(NumaPolicy::Bind({0}), 300);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(alloc_.MovePage((*first)[7], cxl0).ok());
  alloc_.Free(first->TakeBack(100));
  ASSERT_TRUE(alloc_.Allocate(NumaPolicy::Interleave(platform_.DramNodes()), 150).ok());
  ASSERT_EQ(alloc_.page_count(), 350u);
  EXPECT_EQ(alloc_.heat_slots(), 0u);
  EXPECT_EQ(alloc_.page(7).heat, 0.0f);

  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  TieredMemory tiering(alloc_, cfg);
  ASSERT_EQ(alloc_.heat_slots(), alloc_.page_count());
  for (PageId id = 0; id < alloc_.page_count(); ++id) {
    ASSERT_EQ(alloc_.heat_column()[id], 0.0f) << "page " << id;
  }
  auto fresh = alloc_.Allocate(NumaPolicy::Bind({0}), 64);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(alloc_.heat_slots(), alloc_.page_count());
  for (const PageId id : *fresh) {
    tiering.RecordAccess(id, 10);
  }
  tiering.Tick(1.0);
  ASSERT_GT(tiering.Heat((*fresh)[0]), 0.0f);
  alloc_.Free(*fresh);
  auto recycled = alloc_.Allocate(NumaPolicy::Bind({0}), 64);
  ASSERT_TRUE(recycled.ok());
  EXPECT_EQ(alloc_.page_count(), 414u);  // No fresh slot: every id came off the free stack.
  for (const PageId id : *recycled) {
    EXPECT_EQ(tiering.Heat(id), 0.0f) << "page " << id;
    EXPECT_EQ(alloc_.page(id).heat, 0.0f) << "page " << id;
  }
}

// Touched bits last one interval, and a skipped tick ends one too: under
// mru-balancing, pages touched before a daemon stall are not candidates
// after it, although their heat is still above 0, while a page touched
// after it is promoted.
TEST(TouchedBitsTest, StalledTickClearsThem) {
  constexpr uint64_t kPageBytes = 4096;
  topology::PlatformOptions opt;
  opt.sockets = 1;
  opt.dram_per_socket = 512 * kPageBytes;
  opt.cxl_cards = 1;
  opt.cxl_card_capacity = 2048 * kPageBytes;
  const Platform platform = Platform::Build(opt);
  fault::FaultPlan plan;
  plan.DaemonStall(1.0, 1.0);
  fault::FaultInjector faults(std::move(plan));
  PageAllocator alloc(platform, kPageBytes);
  TieringConfig cfg;
  cfg.policy = "mru-balancing";
  TieredMemory tiering(alloc, cfg);
  TieredMemory::Observers observers;
  observers.faults = &faults;
  tiering.Attach(observers);
  auto pages = alloc.Allocate(NumaPolicy::Bind(platform.CxlNodes()), 64);
  ASSERT_TRUE(pages.ok());

  faults.AdvanceTo(0.0);
  EXPECT_EQ(tiering.Tick(1.0).candidates, 0u);
  for (uint64_t i = 0; i < 32; ++i) {
    tiering.RecordAccess((*pages)[i], 100);
  }
  faults.AdvanceTo(1.0);
  ASSERT_TRUE(faults.DaemonStalled());
  EXPECT_EQ(tiering.Tick(1.0).candidates, 0u);
  faults.AdvanceTo(2.0);
  ASSERT_FALSE(faults.DaemonStalled());
  ASSERT_GT(tiering.Heat((*pages)[0]), 0.0f);
  const TieredMemory::TickResult after = tiering.Tick(1.0);
  EXPECT_EQ(after.candidates, 0u);
  EXPECT_EQ(after.promoted_pages, 0u);

  tiering.RecordAccess((*pages)[40], 100);
  faults.AdvanceTo(3.0);
  const TieredMemory::TickResult next = tiering.Tick(1.0);
  EXPECT_EQ(next.candidates, 1u);
  EXPECT_EQ(next.promoted_pages, 1u);
  EXPECT_TRUE(alloc.IsDramNode(alloc.NodeOf((*pages)[40])));
  EXPECT_FALSE(alloc.IsDramNode(alloc.NodeOf((*pages)[0])));
}

// RecordAccessRun must leave exactly what RecordAccess page by page does.
// Two twin daemons take the same spans: 0, 1, 63, 64, 65 and 200 pages at
// word-aligned and unaligned starts, overlapping, at a sample rate whose
// per-access heat is fractional, and one span ending past the pages the
// daemon's warm set has grown to cover. After each round the heats and the
// touched bits match bit for bit, the hint-fault counts match, and so do
// the next tick's results, field by field.
TEST(RecordAccessRunTest, EqualsPerPageRecordAccess) {
  constexpr uint64_t kPageBytes = 4096;
  topology::PlatformOptions opt;
  opt.sockets = 1;
  opt.dram_per_socket = 512 * kPageBytes;
  opt.cxl_cards = 1;
  opt.cxl_card_capacity = 2048 * kPageBytes;
  const Platform platform = Platform::Build(opt);
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 0.05;  // 7 accesses sample 0.35: ceil matters.
  cfg.promote_rate_limit_mbps = 1.0;  // 244 pages a tick: the budget binds.
  struct Twin {
    Twin(const Platform& on, const TieringConfig& config)
        : alloc(on, kPageBytes), tiering(alloc, config) {}
    PageAllocator alloc;
    TieredMemory tiering;
  };
  Twin run(platform, cfg);
  Twin per_page(platform, cfg);
  const auto interleave =
      NumaPolicy::WeightedInterleave(platform.DramNodes(), platform.CxlNodes(), 1, 1);
  const auto allocate = [&](uint64_t count) {
    for (Twin* twin : {&run, &per_page}) {
      ASSERT_TRUE(twin->alloc.Allocate(interleave, count).ok());
    }
  };
  allocate(1024);

  struct Span {
    PageId first;
    uint64_t count;
  };
  std::vector<Span> spans;
  PageId start = 0;
  for (const uint64_t count : {0, 1, 63, 64, 65, 200}) {
    spans.push_back({start, count});       // Word-aligned.
    spans.push_back({start + 37, count});  // Unaligned.
    start += 128;
  }
  // The first spans grow the warm set to the 1024 pages that exist; this
  // one ends in pages allocated after them, before any tick.
  const Span late{1000, 300};
  spans.push_back(late);

  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const size_t pick = i + static_cast<size_t>(round);
      const uint64_t accesses = pick % 3 == 0 ? 7 : pick % 3 == 1 ? 400 : 0;
      const Span& span = spans[i];
      if (round == 0 && span.first == late.first) {
        allocate(600);
      }
      run.tiering.RecordAccessRun(span.first, span.count, accesses);
      for (PageId id = span.first; id < span.first + span.count; ++id) {
        per_page.tiering.RecordAccess(id, accesses);
      }
    }
    const uint64_t n = run.alloc.page_count();
    ASSERT_EQ(n, per_page.alloc.page_count());
    std::vector<float> run_heat(n);
    std::vector<float> per_page_heat(n);
    for (PageId id = 0; id < n; ++id) {
      run_heat[id] = run.tiering.Heat(id);
      per_page_heat[id] = per_page.tiering.Heat(id);
    }
    EXPECT_EQ(std::memcmp(run_heat.data(), per_page_heat.data(), n * sizeof(float)), 0)
        << "round " << round;
    EXPECT_EQ(run.tiering.warm().touched(), per_page.tiering.warm().touched())
        << "round " << round;
    EXPECT_EQ(run.alloc.counters().numa_hint_faults, per_page.alloc.counters().numa_hint_faults)
        << "round " << round;

    const TieredMemory::TickResult a = run.tiering.Tick(1.0);
    const TieredMemory::TickResult b = per_page.tiering.Tick(1.0);
    EXPECT_EQ(a.promoted_pages, b.promoted_pages) << "round " << round;
    EXPECT_EQ(a.demoted_pages, b.demoted_pages) << "round " << round;
    EXPECT_EQ(a.migrated_bytes, b.migrated_bytes) << "round " << round;
    EXPECT_EQ(a.hot_threshold, b.hot_threshold) << "round " << round;
    EXPECT_EQ(a.candidates, b.candidates) << "round " << round;
    EXPECT_EQ(a.pages_visited, b.pages_visited) << "round " << round;
    EXPECT_EQ(a.pool_offers, b.pool_offers) << "round " << round;
    EXPECT_EQ(a.pool_shrinks, b.pool_shrinks) << "round " << round;
    EXPECT_EQ(a.sorted_entries, b.sorted_entries) << "round " << round;
    EXPECT_EQ(a.heat_catch_ups, b.heat_catch_ups) << "round " << round;
    EXPECT_GT(a.candidates, 0u) << "round " << round;
    EXPECT_EQ(std::memcmp(run.alloc.node_column(), per_page.alloc.node_column(),
                          n * sizeof(int8_t)),
              0)
        << "round " << round;
  }
}

}  // namespace
}  // namespace cxl::os
