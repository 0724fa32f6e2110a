#include "src/os/numa_policy.h"

#include <gtest/gtest.h>

#include <map>

namespace cxl::os {
namespace {

using Counts = std::map<topology::NodeId, int>;

// Pages the policy places on each node over one period of its placement
// sequence.
Counts PeriodCounts(const NumaPolicy& p) {
  Counts counts;
  for (const topology::NodeId n : p.PeriodPattern()) {
    ++counts[n];
  }
  return counts;
}

TEST(NumaPolicyTest, BindAlwaysTargetsBoundNodes) {
  const NumaPolicy p = NumaPolicy::Bind({3});
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(p.NodeForIndex(i), 3);
  }
  EXPECT_EQ(PeriodCounts(p), (Counts{{3, 1}}));
}

TEST(NumaPolicyTest, InterleaveRoundRobins) {
  const NumaPolicy p = NumaPolicy::Interleave({0, 1});
  EXPECT_EQ(p.NodeForIndex(0), 0);
  EXPECT_EQ(p.NodeForIndex(1), 1);
  EXPECT_EQ(p.NodeForIndex(2), 0);
  EXPECT_EQ(PeriodCounts(p), (Counts{{0, 1}, {1, 1}}));
}

TEST(NumaPolicyTest, WeightedInterleave3To1) {
  // Table 1's "3:1": 75% of pages to MMEM, 25% to CXL.
  const NumaPolicy p = NumaPolicy::WeightedInterleave({0}, {1}, 3, 1);
  std::map<topology::NodeId, int> counts;
  for (uint64_t i = 0; i < 4000; ++i) {
    ++counts[p.NodeForIndex(i)];
  }
  EXPECT_EQ(counts[0], 3000);
  EXPECT_EQ(counts[1], 1000);
  EXPECT_EQ(PeriodCounts(p), (Counts{{0, 3}, {1, 1}}));
}

TEST(NumaPolicyTest, WeightedInterleave1To3) {
  const NumaPolicy p = NumaPolicy::WeightedInterleave({0}, {1}, 1, 3);
  EXPECT_EQ(PeriodCounts(p), (Counts{{0, 1}, {1, 3}}));
}

TEST(NumaPolicyTest, WeightedInterleaveCycleOrder) {
  // The N:M patch allocates N top pages then M low pages per cycle.
  const NumaPolicy p = NumaPolicy::WeightedInterleave({0}, {9}, 2, 1);
  EXPECT_EQ(p.NodeForIndex(0), 0);
  EXPECT_EQ(p.NodeForIndex(1), 0);
  EXPECT_EQ(p.NodeForIndex(2), 9);
  EXPECT_EQ(p.NodeForIndex(3), 0);
}

TEST(NumaPolicyTest, WeightedInterleaveMultipleNodesPerTier) {
  // Two DRAM nodes and two CXL cards at 1:1 -> each node gets 25%.
  const NumaPolicy p = NumaPolicy::WeightedInterleave({0, 1}, {2, 3}, 1, 1);
  std::map<topology::NodeId, int> counts;
  for (uint64_t i = 0; i < 4000; ++i) {
    ++counts[p.NodeForIndex(i)];
  }
  for (topology::NodeId n : {0, 1, 2, 3}) {
    EXPECT_EQ(counts[n], 1000) << "node " << n;
  }
}

TEST(NumaPolicyTest, SharesSumToOne) {
  // 3 of every 5 pages go to the top tier, split evenly over its two
  // nodes, and 2 of every 5 to node 2: shares 0.3 + 0.3 + 0.4.
  const NumaPolicy p = NumaPolicy::WeightedInterleave({0, 1}, {2}, 3, 2);
  EXPECT_EQ(PeriodCounts(p), (Counts{{0, 3}, {1, 3}, {2, 4}}));
}

}  // namespace
}  // namespace cxl::os
