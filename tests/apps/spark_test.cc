#include "src/apps/spark/cluster.h"

#include <gtest/gtest.h>

#include "src/apps/spark/query.h"

namespace cxl::apps::spark {
namespace {

TEST(QueryProfileTest, FourShuffleHeavyQueries) {
  const auto queries = TpchShuffleHeavyQueries();
  ASSERT_EQ(queries.size(), 4u);
  EXPECT_EQ(queries[0].name, "Q5");
  EXPECT_EQ(queries[3].name, "Q9");
  // Q9 is the heaviest shuffler.
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_GT(queries[i].shuffle_bytes, queries[i - 1].shuffle_bytes);
  }
}

TEST(QueryProfileTest, FindQuery) {
  EXPECT_NE(FindQuery("Q7"), nullptr);
  EXPECT_EQ(FindQuery("Q7")->name, "Q7");
  EXPECT_EQ(FindQuery("Q1"), nullptr);
}

TEST(SparkConfigTest, Factories) {
  EXPECT_EQ(SparkConfig::MmemOnly().servers, 3);
  EXPECT_EQ(SparkConfig::Interleave(3, 1).servers, 2);
  EXPECT_EQ(SparkConfig::Interleave(3, 1).top_weight, 3);
  EXPECT_DOUBLE_EQ(SparkConfig::Spill(0.8).memory_fraction, 0.8);
  EXPECT_EQ(SparkConfig::HotPromote().mode, SparkMemoryMode::kHotPromote);
  EXPECT_EQ(ModeLabel(SparkMemoryMode::kHotPromote), "Hot-Promote");
}

TEST(SparkClusterTest, MmemOnlyHasNoSpillNoCxl) {
  SparkCluster cluster(SparkConfig::MmemOnly());
  const auto r = cluster.RunQuery(*FindQuery("Q7"));
  EXPECT_DOUBLE_EQ(r.spilled_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.cxl_access_share, 0.0);
  EXPECT_DOUBLE_EQ(r.migrated_bytes, 0.0);
  EXPECT_NEAR(r.total_seconds,
              r.compute_seconds + r.shuffle_write_seconds + r.shuffle_read_seconds, 1e-9);
}

TEST(SparkClusterTest, InterleaveSlowdownGrowsWithCxlShare) {
  const QueryProfile& q9 = *FindQuery("Q9");
  const double base = SparkCluster(SparkConfig::MmemOnly()).RunQuery(q9).total_seconds;
  const double s31 = SparkCluster(SparkConfig::Interleave(3, 1)).RunQuery(q9).total_seconds;
  const double s11 = SparkCluster(SparkConfig::Interleave(1, 1)).RunQuery(q9).total_seconds;
  const double s13 = SparkCluster(SparkConfig::Interleave(1, 3)).RunQuery(q9).total_seconds;
  EXPECT_GT(s31, base);
  EXPECT_GT(s11, s31);
  EXPECT_GT(s13, s11);
  // §4.2.2 band: 1.4x-9.8x.
  EXPECT_GT(s31 / base, 1.3);
  EXPECT_LT(s13 / base, 10.0);
}

TEST(SparkClusterTest, SlowdownGrowsWithShuffleIntensity) {
  // Q9 (heaviest shuffle) suffers more from interleaving than Q5.
  SparkCluster base_cluster(SparkConfig::MmemOnly());
  SparkCluster inter_cluster(SparkConfig::Interleave(1, 3));
  const double q5 = inter_cluster.RunQuery(*FindQuery("Q5")).total_seconds /
                    base_cluster.RunQuery(*FindQuery("Q5")).total_seconds;
  const double q9 = inter_cluster.RunQuery(*FindQuery("Q9")).total_seconds /
                    base_cluster.RunQuery(*FindQuery("Q9")).total_seconds;
  EXPECT_GT(q9, q5);
}

TEST(SparkClusterTest, SpillVolumesScaleWithRestriction) {
  const QueryProfile& q7 = *FindQuery("Q7");
  const auto r08 = SparkCluster(SparkConfig::Spill(0.8)).RunQuery(q7);
  const auto r06 = SparkCluster(SparkConfig::Spill(0.6)).RunQuery(q7);
  EXPECT_GT(r08.spilled_bytes, 0.0);
  EXPECT_GT(r06.spilled_bytes, r08.spilled_bytes);
  EXPECT_GT(r06.total_seconds, r08.total_seconds);
  // Order-of-magnitude check vs the paper's ~320 GB / ~500 GB.
  EXPECT_GT(r08.spilled_bytes, 100e9);
  EXPECT_LT(r06.spilled_bytes, 1000e9);
}

TEST(SparkClusterTest, SpillTimeIsChargedToShuffle) {
  const QueryProfile& q7 = *FindQuery("Q7");
  const auto spill = SparkCluster(SparkConfig::Spill(0.6)).RunQuery(q7);
  const auto base = SparkCluster(SparkConfig::MmemOnly()).RunQuery(q7);
  EXPECT_GT(spill.ShuffleShare(), base.ShuffleShare());
  EXPECT_NEAR(spill.compute_seconds, base.compute_seconds, 1e-9);
}

TEST(SparkClusterTest, HotPromoteThrashesOnSpark) {
  // §4.2.2: >34% slowdown vs MMEM with sustained migration traffic.
  const QueryProfile& q7 = *FindQuery("Q7");
  const double base = SparkCluster(SparkConfig::MmemOnly()).RunQuery(q7).total_seconds;
  const auto hp = SparkCluster(SparkConfig::HotPromote()).RunQuery(q7);
  EXPECT_GT(hp.total_seconds / base, 1.34);
  EXPECT_GT(hp.migrated_bytes, 10e9);  // The daemon kept churning.
}

TEST(SparkClusterTest, HotPromoteBeatsStaticOneToThree) {
  // Promotion captures part of the streamed window: better than pinning 75%
  // on CXL, despite the thrash.
  const QueryProfile& q7 = *FindQuery("Q7");
  const double hp = SparkCluster(SparkConfig::HotPromote()).RunQuery(q7).total_seconds;
  const double s13 = SparkCluster(SparkConfig::Interleave(1, 3)).RunQuery(q7).total_seconds;
  EXPECT_LT(hp, s13);
}

TEST(SparkClusterTest, QueriesAreIndependentRuns) {
  // Hot-Promote state is rebuilt before every query: re-running a query
  // after another gives the same answer bit for bit.
  SparkCluster cluster(SparkConfig::HotPromote());
  const QueryResult a = cluster.RunQuery(*FindQuery("Q8"));
  cluster.RunQuery(*FindQuery("Q5"));
  const QueryResult b = cluster.RunQuery(*FindQuery("Q8"));
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.shuffle_write_seconds, b.shuffle_write_seconds);
  EXPECT_EQ(a.shuffle_read_seconds, b.shuffle_read_seconds);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.cxl_access_share, b.cxl_access_share);
  EXPECT_EQ(a.reexecuted_partitions, b.reexecuted_partitions);
  EXPECT_EQ(a.retry_seconds, b.retry_seconds);
  EXPECT_GT(a.migrated_bytes, 0.0);
}

TEST(SparkClusterTest, ShuffleShareGrowsWithShuffleBytes) {
  SparkCluster cluster(SparkConfig::MmemOnly());
  const double q5 = cluster.RunQuery(*FindQuery("Q5")).ShuffleShare();
  const double q9 = cluster.RunQuery(*FindQuery("Q9")).ShuffleShare();
  EXPECT_GT(q9, q5);
  EXPECT_GT(q5, 0.1);
  EXPECT_LT(q9, 0.9);
}

}  // namespace
}  // namespace cxl::apps::spark
