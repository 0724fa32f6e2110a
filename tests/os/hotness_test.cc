#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

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

// RecordAccessRun must leave exactly what RecordAccess page by page does.
// Two twin daemons take the same spans: 0, 1, 63, 64, 65 and 200 pages at
// word-aligned and unaligned starts, overlapping, at a sample rate whose
// per-access heat is fractional, and one span ending past the pages the
// daemon's warm set has grown to cover. After each round the heat and
// epoch columns match bit for bit, the hint-fault counts match, and so do
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
    EXPECT_EQ(std::memcmp(run.alloc.epoch_column(), per_page.alloc.epoch_column(),
                          n * sizeof(uint32_t)),
              0)
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
                          n * sizeof(topology::NodeId)),
              0)
        << "round " << round;
  }
}

}  // namespace
}  // namespace cxl::os
