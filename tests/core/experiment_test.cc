#include "src/core/experiment.h"

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/os/policy_registry.h"

namespace cxl::core {
namespace {

KeyDbExperimentOptions FastOptions() {
  KeyDbExperimentOptions opt;
  opt.dataset_bytes = 4ull << 30;
  opt.total_ops = 60'000;
  opt.warmup_ops = 15'000;
  return opt;
}

TEST(ExperimentTest, MmemRunSucceeds) {
  const auto res = RunKeyDbExperiment(CapacityConfig::kMmem, workload::YcsbWorkload::kC,
                                      FastOptions());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->config_label, "MMEM");
  EXPECT_EQ(res->workload_name, "YCSB-C");
  EXPECT_GT(res->server.throughput_kops, 10.0);
  EXPECT_GT(res->server.all_latency_us.count(), 0u);
  EXPECT_DOUBLE_EQ(res->server.dram_share, 1.0);
}

TEST(ExperimentTest, DeterministicUnderSeed) {
  const auto a = RunKeyDbExperiment(CapacityConfig::kInterleave11, workload::YcsbWorkload::kA,
                                    FastOptions());
  const auto b = RunKeyDbExperiment(CapacityConfig::kInterleave11, workload::YcsbWorkload::kA,
                                    FastOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->server.throughput_kops, b->server.throughput_kops);
}

TEST(ExperimentTest, InterleaveIsSlowerThanMmem) {
  const auto mmem =
      RunKeyDbExperiment(CapacityConfig::kMmem, workload::YcsbWorkload::kB, FastOptions());
  const auto inter = RunKeyDbExperiment(CapacityConfig::kInterleave13, workload::YcsbWorkload::kB,
                                        FastOptions());
  ASSERT_TRUE(mmem.ok());
  ASSERT_TRUE(inter.ok());
  const double slowdown = mmem->server.throughput_kops / inter->server.throughput_kops;
  EXPECT_GT(slowdown, 1.15);
  EXPECT_LT(slowdown, 1.7);
  EXPECT_NEAR(inter->server.dram_share, 0.25, 0.01);
}

TEST(ExperimentTest, FlashConfigUsesSsd) {
  const auto res = RunKeyDbExperiment(CapacityConfig::kMmemSsd04, workload::YcsbWorkload::kA,
                                      FastOptions());
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->server.ssd_write_gbps, 0.0);  // WAL traffic at minimum.
}

TEST(ExperimentTest, HotPromoteMigratesAndRecovers) {
  KeyDbExperimentOptions opt = FastOptions();
  opt.total_ops = 120'000;
  const auto hp = RunKeyDbExperiment(CapacityConfig::kHotPromote, workload::YcsbWorkload::kC, opt);
  const auto inter =
      RunKeyDbExperiment(CapacityConfig::kInterleave11, workload::YcsbWorkload::kC, opt);
  ASSERT_TRUE(hp.ok());
  ASSERT_TRUE(inter.ok());
  EXPECT_GT(hp->server.migrated_bytes, 0.0);
  // Promotion pulls the Zipfian-hot pages into DRAM: beats static 1:1.
  EXPECT_GT(hp->server.throughput_kops, inter->server.throughput_kops);
}

TEST(ExperimentTest, VmExperimentPenaltyInBand) {
  KeyDbExperimentOptions opt;
  opt.dataset_bytes = 4ull << 30;
  opt.total_ops = 80'000;
  opt.warmup_ops = 20'000;
  const auto res = RunVmCxlOnlyExperiment(opt);
  ASSERT_TRUE(res.ok());
  // Paper: ~12.5% throughput penalty; latency penalty 9-27%.
  EXPECT_GT(res->throughput_penalty, 0.05);
  EXPECT_LT(res->throughput_penalty, 0.25);
  const double lat_penalty = res->cxl.server.read_latency_us.p50() /
                                 res->mmem.server.read_latency_us.p50() -
                             1.0;
  EXPECT_GT(lat_penalty, 0.05);
  EXPECT_LT(lat_penalty, 0.30);
}

TEST(ExperimentTest, TimelineCoversEpochs) {
  KeyDbExperimentOptions opt = FastOptions();
  const auto res = RunKeyDbExperiment(CapacityConfig::kMmem, workload::YcsbWorkload::kC, opt);
  ASSERT_TRUE(res.ok());
  // total_ops / epoch_ops(10k) boundaries, minus perhaps a partial tail.
  EXPECT_GE(res->server.timeline.size(), 5u);
  double prev_ms = 0.0;
  for (const auto& s : res->server.timeline) {
    EXPECT_GT(s.end_ms, prev_ms);
    EXPECT_GT(s.kops, 0.0);
    prev_ms = s.end_ms;
  }
}

TEST(ExperimentTest, HotPromoteTimelineShowsRampAndBoundedChurn) {
  KeyDbExperimentOptions opt = FastOptions();
  opt.total_ops = 120'000;
  const auto res =
      RunKeyDbExperiment(CapacityConfig::kHotPromote, workload::YcsbWorkload::kC, opt);
  ASSERT_TRUE(res.ok());
  const auto& tl = res->server.timeline;
  ASSERT_GE(tl.size(), 6u);
  // Throughput ramps from the cold 1:1 start toward steady state.
  EXPECT_GT(tl.back().kops, tl.front().kops);
  // Migration happened, and each epoch's volume respects the rate limit
  // (1024 MB/s over a << 1 s epoch): the daemon trickles, never floods.
  double total_mb = 0.0;
  for (const auto& s : tl) {
    total_mb += s.migrated_mb;
    EXPECT_LT(s.migrated_mb, 150.0) << "epoch at " << s.end_ms << " ms";
  }
  EXPECT_GT(total_mb, 1.0);
}

TEST(ExperimentTest, TelemetryIsObservationalAndCapturesDaemonSeries) {
  KeyDbExperimentOptions opt = FastOptions();
  opt.total_ops = 120'000;
  const auto plain =
      RunKeyDbExperiment(CapacityConfig::kHotPromote, workload::YcsbWorkload::kC, opt);
  telemetry::MetricRegistry reg;
  opt.env.telemetry = &reg;
  const auto traced =
      RunKeyDbExperiment(CapacityConfig::kHotPromote, workload::YcsbWorkload::kC, opt);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(traced.ok());

  // Attaching a sink must not change the simulation.
  EXPECT_DOUBLE_EQ(plain->server.throughput_kops, traced->server.throughput_kops);
  EXPECT_DOUBLE_EQ(plain->server.migrated_bytes, traced->server.migrated_bytes);

  // The promotion daemon leaves one sample per tick; the end-state gauges and
  // per-path bandwidth readings are filled in.
  const auto& series = reg.timeline().series();
  ASSERT_GT(series.count("tiering.promote_mbps"), 0u);
  EXPECT_GE(series.at("tiering.promote_mbps").size(), 10u);
  EXPECT_EQ(series.at("tiering.hot_threshold").size(),
            series.at("tiering.promote_mbps").size());
  ASSERT_GT(series.count("vmstat.pgpromote_success"), 0u);
  EXPECT_GT(reg.GetCounter("tiering.ticks").value(), 0u);
  EXPECT_TRUE(reg.GetGauge("kv.throughput_kops").set());
  EXPECT_TRUE(reg.GetGauge("pcm.skt0.dram_gbps").set());
  EXPECT_GT(reg.histograms().count("kv.read_latency_us"), 0u);
  EXPECT_FALSE(reg.trace().empty());
}

TEST(ExperimentTest, VmExperimentMergesPlacementPrefixes) {
  KeyDbExperimentOptions opt = FastOptions();
  opt.total_ops = 40'000;
  opt.warmup_ops = 10'000;
  telemetry::MetricRegistry reg;
  opt.env.telemetry = &reg;
  const auto res = RunVmCxlOnlyExperiment(opt);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(reg.GetGauge("mmem.kv.throughput_kops").set());
  EXPECT_TRUE(reg.GetGauge("cxl.kv.throughput_kops").set());
  EXPECT_NEAR(reg.GetGauge("mmem.kv.throughput_kops").value(),
              res->mmem.server.throughput_kops, 1e-9);
}

// The Hot-Promote YCSB-B cell built field by field, without MakeKvCell:
// RunKvCell must reproduce RunKeyDbExperiment's run exactly (the check
// hostbench's self-test makes against its own copy of the cell).
TEST(RunKvCellTest, HandBuiltHotPromoteCellEqualsRunKeyDbExperiment) {
  KeyDbExperimentOptions opt = FastOptions();
  opt.total_ops = 120'000;
  topology::Platform platform = MakeHotPromotePlatform(opt.dataset_bytes);
  os::NumaPolicy placement =
      os::NumaPolicy::WeightedInterleave(platform.DramNodes(), platform.CxlNodes(), 1, 1);
  KvCell cell{std::move(platform), std::move(placement), DefaultTieringConfig(),
              apps::kv::KvStoreConfig{}, apps::kv::KvServerConfig{}};
  cell.store.record_count = opt.dataset_bytes / opt.value_bytes;
  cell.server.total_ops = opt.total_ops;
  cell.server.warmup_ops = opt.warmup_ops;
  workload::YcsbGenerator gen(workload::YcsbWorkload::kB, cell.store.record_count, 1);
  const auto run = RunKvCell(cell, gen, ExperimentEnv{});
  const auto reference =
      RunKeyDbExperiment(CapacityConfig::kHotPromote, workload::YcsbWorkload::kB, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(run->server.throughput_kops, reference->server.throughput_kops);
  EXPECT_EQ(run->server.all_latency_us.p99(), reference->server.all_latency_us.p99());
  EXPECT_EQ(run->server.migrated_bytes, reference->server.migrated_bytes);
  EXPECT_EQ(run->server.dram_share, reference->server.dram_share);
  // DRAM holds only half the dataset, so every promotion forces a demotion.
  EXPECT_GT(run->counters.pgpromote_success, 0u);
  EXPECT_GT(run->counters.pgdemote, 0u);
}

TEST(RunKvCellTest, StoreThatDoesNotFitItsPlacementFails) {
  const uint64_t dataset = 4ull << 30;
  // DRAM is half the dataset; binding the whole store to it cannot fit.
  topology::Platform platform = MakeHotPromotePlatform(dataset);
  os::NumaPolicy placement = os::NumaPolicy::Bind(platform.DramNodes());
  KvCell cell{std::move(platform), std::move(placement), DefaultTieringConfig(),
              apps::kv::KvStoreConfig{}, apps::kv::KvServerConfig{}};
  cell.store.record_count = dataset / cell.store.value_bytes;
  workload::YcsbGenerator gen(workload::YcsbWorkload::kC, cell.store.record_count, 1);
  const auto run = RunKvCell(cell, gen, ExperimentEnv{});
  EXPECT_FALSE(run.ok());
}

// Every QueryResult field, bit for bit.
void ExpectSameQuery(const apps::spark::QueryResult& a, const apps::spark::QueryResult& b) {
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.shuffle_write_seconds, b.shuffle_write_seconds);
  EXPECT_EQ(a.shuffle_read_seconds, b.shuffle_read_seconds);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.cxl_access_share, b.cxl_access_share);
  EXPECT_EQ(a.reexecuted_partitions, b.reexecuted_partitions);
  EXPECT_EQ(a.retry_seconds, b.retry_seconds);
}

// The cell's tiering_policy drives the Hot-Promote daemon; the env's is not
// read.
TEST(RunSparkCellTest, CellPolicyReachesTheDaemon) {
  SparkCell cell{apps::spark::SparkConfig::HotPromote(), *apps::spark::FindQuery("Q9")};
  const apps::spark::QueryResult default_policy = RunSparkCell(cell, ExperimentEnv{});
  cell.cluster.tiering_policy = os::kTppLikePolicyName;
  ExperimentEnv env;
  env.tiering_policy = os::kMruBalancingPolicyName;
  const apps::spark::QueryResult tpp = RunSparkCell(cell, env);
  ExpectSameQuery(tpp, apps::spark::SparkCluster(cell.cluster).RunQuery(cell.query));
  EXPECT_NE(tpp.migrated_bytes, default_policy.migrated_bytes);
  EXPECT_NE(tpp.total_seconds, default_policy.total_seconds);
}

// RunSparkCell under a fault plan with a registry attached equals a cluster
// and injector wired by hand, registers the trace tracks in the same order,
// and attributes every shuffle re-execution to a window the log opened.
TEST(RunSparkCellTest, HandBuiltCellEqualsRunSparkCell) {
  const std::vector<std::pair<apps::spark::SparkConfig, std::vector<std::string>>> configs = {
      {apps::spark::SparkConfig::HotPromote(),
       {"spark/Hot-Promote", "promotion-daemon", "faults"}},
      {apps::spark::SparkConfig::Interleave(1, 1), {"spark/interleave", "faults"}},
  };
  for (const auto& [config, tracks] : configs) {
    SCOPED_TRACE(apps::spark::ModeLabel(config.mode));
    const SparkCell cell{config, *apps::spark::FindQuery("Q9")};
    telemetry::MetricRegistry registry;
    ExperimentEnv env;
    env.faults = fault::FaultPlan().Downtrain(0.0, std::numeric_limits<double>::infinity(), 4);
    env.fault_seed = 7;
    env.telemetry = &registry;
    const apps::spark::QueryResult run = RunSparkCell(cell, env);

    telemetry::MetricRegistry hand_registry;
    fault::FaultInjector injector(env.faults, env.fault_seed, env.fault_tunables);
    apps::spark::SparkCluster cluster(config, &hand_registry, &injector);
    injector.AttachTelemetry(&hand_registry);
    ExpectSameQuery(run, cluster.RunQuery(cell.query));
    EXPECT_EQ(registry.trace().tracks(), tracks);
    EXPECT_EQ(hand_registry.trace().tracks(), tracks);

    std::set<int32_t> opened;
    registry.events().ForEach([&opened](const telemetry::Event& e) {
      if (e.kind == telemetry::EventKind::kFaultWindowOpen) {
        opened.insert(e.window);
      }
    });
    int reexec_events = 0;
    registry.events().ForEach([&](const telemetry::Event& e) {
      if (e.kind == telemetry::EventKind::kSparkShuffleReexec) {
        ++reexec_events;
        EXPECT_EQ(opened.count(e.window), 1u) << "window " << e.window;
      }
    });
    EXPECT_GT(run.reexecuted_partitions, 0);
    EXPECT_EQ(reexec_events, 1);
  }
}

}  // namespace
}  // namespace cxl::core
