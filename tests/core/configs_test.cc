#include "src/core/configs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace cxl::core {
namespace {

using topology::Platform;

TEST(ConfigsTest, LabelsMatchTableOne) {
  EXPECT_EQ(ConfigLabel(CapacityConfig::kMmem), "MMEM");
  EXPECT_EQ(ConfigLabel(CapacityConfig::kMmemSsd02), "MMEM-SSD-0.2");
  EXPECT_EQ(ConfigLabel(CapacityConfig::kMmemSsd04), "MMEM-SSD-0.4");
  EXPECT_EQ(ConfigLabel(CapacityConfig::kInterleave31), "3:1");
  EXPECT_EQ(ConfigLabel(CapacityConfig::kInterleave11), "1:1");
  EXPECT_EQ(ConfigLabel(CapacityConfig::kInterleave13), "1:3");
  EXPECT_EQ(ConfigLabel(CapacityConfig::kHotPromote), "Hot-Promote");
}

TEST(ConfigsTest, AllConfigsCoversTableOne) {
  EXPECT_EQ(AllCapacityConfigs().size(), 7u);
}

TEST(ConfigsTest, MmemBindsToDram) {
  const Platform p = Platform::CxlServer(false);
  const auto setup = MakeCapacitySetup(CapacityConfig::kMmem, p);
  EXPECT_EQ(setup.policy.mode(), os::PolicyMode::kBind);
  EXPECT_FALSE(setup.flash);
  EXPECT_FALSE(setup.hot_promote);
  EXPECT_DOUBLE_EQ(setup.maxmemory_fraction, 1.0);
}

TEST(ConfigsTest, SsdConfigsEnableFlash) {
  const Platform p = Platform::CxlServer(false);
  const auto s02 = MakeCapacitySetup(CapacityConfig::kMmemSsd02, p);
  EXPECT_TRUE(s02.flash);
  EXPECT_DOUBLE_EQ(s02.maxmemory_fraction, 0.8);
  const auto s04 = MakeCapacitySetup(CapacityConfig::kMmemSsd04, p);
  EXPECT_DOUBLE_EQ(s04.maxmemory_fraction, 0.6);
}

TEST(ConfigsTest, InterleaveRatios) {
  const Platform p = Platform::CxlServer(false);
  const auto cxl0 = p.CxlNodes()[0];
  // Share of one period's pages the setup's policy places on the first card.
  const auto cxl0_share = [&](CapacityConfig config) {
    const std::vector<topology::NodeId> period = MakeCapacitySetup(config, p).policy.PeriodPattern();
    return static_cast<double>(std::count(period.begin(), period.end(), cxl0)) /
           static_cast<double>(period.size());
  };
  EXPECT_DOUBLE_EQ(cxl0_share(CapacityConfig::kInterleave31), 0.25 / 2.0);  // Over two cards.
  EXPECT_DOUBLE_EQ(cxl0_share(CapacityConfig::kInterleave13), 0.75 / 2.0);
}

TEST(ConfigsTest, HotPromoteUsesDaemonWithOneToOneStart) {
  const Platform p = MakeHotPromotePlatform(64ull << 30);
  const auto setup = MakeCapacitySetup(CapacityConfig::kHotPromote, p);
  EXPECT_TRUE(setup.hot_promote);
  EXPECT_EQ(setup.policy.mode(), os::PolicyMode::kWeightedInterleave);
  EXPECT_EQ(setup.policy.top_weight(), 1);
  EXPECT_EQ(setup.policy.low_weight(), 1);
}

TEST(ConfigsTest, HotPromotePlatformCapsDramAtHalfDataset) {
  const uint64_t dataset = 64ull << 30;
  const Platform p = MakeHotPromotePlatform(dataset);
  uint64_t dram_bytes = 0;
  for (const topology::NodeId n : p.DramNodes()) {
    dram_bytes += p.node(n).capacity_bytes;
  }
  EXPECT_EQ(dram_bytes, dataset / 2);
  EXPECT_FALSE(p.CxlNodes().empty());
}

TEST(ConfigsTest, DefaultTieringConfigSane) {
  const os::TieringConfig cfg = DefaultTieringConfig();
  EXPECT_GT(cfg.promote_rate_limit_mbps, 0.0);
  EXPECT_TRUE(cfg.dynamic_threshold);
  EXPECT_GT(cfg.hint_fault_sample_rate, 0.0);
  EXPECT_LE(cfg.hint_fault_sample_rate, 1.0);
}

}  // namespace
}  // namespace cxl::core
