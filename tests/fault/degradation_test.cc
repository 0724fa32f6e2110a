// Graceful-degradation responses, end to end: each layer's reaction to an
// injected fault is observable in its results, disabled plans leave runs
// byte-identical, and fault-injected sweeps stay deterministic across
// --jobs fan-outs.
#include <gtest/gtest.h>

#include <limits>

#include "src/core/experiment.h"
#include "src/fault/fault.h"
#include "src/os/numa_policy.h"
#include "src/os/page_allocator.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"

namespace cxl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

core::KeyDbExperimentOptions KvOptions() {
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 16ull << 30;
  opt.total_ops = 90'000;
  opt.warmup_ops = 20'000;
  return opt;
}

// --- Tiering daemon -------------------------------------------------------

class TieringFaultTest : public ::testing::Test {
 protected:
  // 1 GiB pages keep node capacities small enough to fill exactly.
  TieringFaultTest()
      : platform_(topology::Platform::CxlServer(false)), alloc_(platform_, 1ull << 30) {}

  os::TieringConfig Config() {
    os::TieringConfig cfg;
    cfg.hint_fault_sample_rate = 1.0;
    cfg.initial_hot_threshold = 4.0;
    cfg.dynamic_threshold = false;
    return cfg;
  }

  topology::Platform platform_;
  os::PageAllocator alloc_;
};

TEST_F(TieringFaultTest, QuarantineDemotesAndBlocksPromotion) {
  os::TieredMemory tiering(alloc_, Config());
  const auto dram0 = platform_.DramNodes()[0];
  auto pages = alloc_.Allocate(os::NumaPolicy::Bind({dram0}), 2);
  ASSERT_TRUE(pages.ok());
  const os::PageId victim = (*pages)[0];

  ASSERT_TRUE(tiering.QuarantinePage(victim));
  EXPECT_FALSE(tiering.QuarantinePage(victim));  // Already quarantined.
  EXPECT_EQ(tiering.QuarantinedPages(), 1u);
  // Demoted out of DRAM...
  EXPECT_FALSE(alloc_.IsDramNode(alloc_.NodeOf(victim)));
  // ...and never promoted back, no matter how hot it runs.
  for (int tick = 0; tick < 4; ++tick) {
    tiering.RecordAccess(victim, 1000);
    tiering.Tick(1.0);
  }
  EXPECT_FALSE(alloc_.IsDramNode(alloc_.NodeOf(victim)));
}

TEST_F(TieringFaultTest, DaemonStallFreezesTicks) {
  os::TieredMemory tiering(alloc_, Config());
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(os::NumaPolicy::Bind({cxl0}), 4);
  ASSERT_TRUE(pages.ok());

  fault::FaultInjector stall(fault::FaultPlan().DaemonStall(0.0, kInf));
  stall.AdvanceTo(0.0);
  os::TieredMemory::Observers obs;
  obs.faults = &stall;
  tiering.Attach(obs);
  for (os::PageId id : *pages) {
    tiering.RecordAccess(id, 100);
  }
  const auto stalled = tiering.Tick(1.0);
  EXPECT_EQ(stalled.promoted_pages, 0u);
  EXPECT_DOUBLE_EQ(stalled.migrated_bytes, 0.0);

  // Once the daemon recovers, the (still hot) pages promote. (A default
  // Observers detaches everything.)
  tiering.Attach(os::TieredMemory::Observers{});
  const auto recovered = tiering.Tick(1.0);
  EXPECT_EQ(recovered.promoted_pages, 4u);
}

TEST_F(TieringFaultTest, PromotionFailureArmsExponentialBackoff) {
  os::TieredMemory tiering(alloc_, Config());
  // Fill every node completely so promotion cannot make room anywhere.
  for (const auto node : platform_.DramNodes()) {
    ASSERT_TRUE(alloc_.Allocate(os::NumaPolicy::Bind({node}), alloc_.FreePages(node)).ok());
  }
  std::vector<os::PageId> cxl_pages;
  for (const auto node : platform_.CxlNodes()) {
    auto pages = alloc_.Allocate(os::NumaPolicy::Bind({node}), alloc_.FreePages(node));
    ASSERT_TRUE(pages.ok());
    cxl_pages.insert(cxl_pages.end(), pages->begin(), pages->end());
  }

  // Enabled injector (the plan's window never opens; backoff only needs the
  // degraded path armed, not an active event).
  fault::FaultInjector faults(fault::FaultPlan().Poison(1e6, 1.0, 1e-4));
  faults.AdvanceTo(0.0);
  os::TieredMemory::Observers obs;
  obs.faults = &faults;
  tiering.Attach(obs);
  tiering.RecordAccess(cxl_pages.front(), 1000);
  tiering.Tick(1.0);
  const int armed = tiering.BackoffTicksRemaining();
  EXPECT_GT(armed, 0);
  // Backed-off ticks are skipped and drain the counter.
  tiering.Tick(1.0);
  EXPECT_EQ(tiering.BackoffTicksRemaining(), armed - 1);
}

// --- KV server ------------------------------------------------------------

TEST(KvDegradationTest, PoisonedReadsRetryAndQuarantine) {
  core::KeyDbExperimentOptions opt = KvOptions();
  opt.env.faults = fault::FaultPlan().Poison(0.0, kInf, 1e-3);
  const auto res =
      core::RunKeyDbExperiment(core::CapacityConfig::kHotPromote, workload::YcsbWorkload::kA, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->server.poisoned_reads, 0u);
  EXPECT_EQ(res->server.poison_retries,
            res->server.poisoned_reads *
                static_cast<uint64_t>(fault::FaultTunables{}.poison_read_retries));
  EXPECT_GT(res->server.quarantined_pages, 0u);

  const auto healthy = core::RunKeyDbExperiment(core::CapacityConfig::kHotPromote,
                                                workload::YcsbWorkload::kA, KvOptions());
  ASSERT_TRUE(healthy.ok());
  EXPECT_LT(res->server.throughput_kops, healthy->server.throughput_kops);
}

TEST(KvDegradationTest, FlashIoErrorsCostTimeouts) {
  core::KeyDbExperimentOptions opt = KvOptions();
  opt.env.faults = fault::FaultPlan().FlashErrors(0.0, kInf, 0.02);
  const auto res =
      core::RunKeyDbExperiment(core::CapacityConfig::kMmemSsd02, workload::YcsbWorkload::kA, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->server.flash_errors, 0u);
}

TEST(KvDegradationTest, SustainedThrottleArmsLoadShedding) {
  core::KeyDbExperimentOptions opt = KvOptions();
  opt.env.faults = fault::FaultPlan().DramThrottle(0.05, kInf, 0.25);
  const auto res =
      core::RunKeyDbExperiment(core::CapacityConfig::kHotPromote, workload::YcsbWorkload::kA, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->server.shed_ops, 0u);
  EXPECT_GT(res->server.shed_epochs, 0u);
}

TEST(KvDegradationTest, DowntrainSlowsCxlHeavyConfig) {
  core::KeyDbExperimentOptions opt = KvOptions();
  opt.env.faults = fault::FaultPlan().Downtrain(0.05, kInf, 4);
  const auto degraded =
      core::RunKeyDbExperiment(core::CapacityConfig::kInterleave11, workload::YcsbWorkload::kC, opt);
  const auto healthy = core::RunKeyDbExperiment(core::CapacityConfig::kInterleave11,
                                                workload::YcsbWorkload::kC, KvOptions());
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(healthy.ok());
  EXPECT_LT(degraded->server.throughput_kops, 0.85 * healthy->server.throughput_kops);
}

// --- Spark ----------------------------------------------------------------

TEST(SparkDegradationTest, DegradedLinkReexecutesShufflePartitions) {
  // Q9 on Interleave 1:1, as bench_fault_storms (b) runs it.
  const core::SparkCell cell{apps::spark::SparkConfig::Interleave(1, 1),
                             *apps::spark::FindQuery("Q9")};
  core::ExperimentEnv degraded;
  degraded.faults = fault::FaultPlan().Downtrain(0.0, kInf, 4);

  const auto h = core::RunSparkCell(cell, core::ExperimentEnv{});
  const auto d = core::RunSparkCell(cell, degraded);
  EXPECT_EQ(h.reexecuted_partitions, 0);
  EXPECT_GT(d.reexecuted_partitions, 0);
  EXPECT_GT(d.total_seconds, h.total_seconds);
  EXPECT_GT(d.retry_seconds, 0.0);
}

// --- LLM serving ----------------------------------------------------------

TEST(LlmDegradationTest, BandwidthCollapseShrinksDecodeBatch) {
  core::LlmExperimentOptions healthy;
  healthy.stack.placement = apps::llm::LlmPlacement::Interleave(1, 2);
  healthy.requests = 32;
  core::LlmExperimentOptions degraded = healthy;
  degraded.env.faults = fault::FaultPlan().Downtrain(0.0, kInf, 4).CrcStorm(0.0, kInf, 0.2);

  const auto h = core::RunLlmExperiment(healthy);
  const auto d = core::RunLlmExperiment(degraded);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(h->stats.batch_shrinks, 0u);
  EXPECT_EQ(h->stats.min_batch, 0);
  EXPECT_GT(d->stats.batch_shrinks, 0u);
  EXPECT_GT(d->stats.min_batch, 0);
  EXPECT_LT(d->stats.min_batch, degraded.stack.decode_batch);
  EXPECT_LT(d->stats.tokens_per_second, h->stats.tokens_per_second);
}

// --- Cross-cutting invariants ---------------------------------------------

TEST(FaultEnvTest, EmptyPlanLeavesRunIdentical) {
  // A run with an empty plan (whatever the fault seed or tunables say) is
  // identical to one that never heard of faults.
  const auto baseline = core::RunKeyDbExperiment(core::CapacityConfig::kHotPromote,
                                                 workload::YcsbWorkload::kA, KvOptions());
  core::KeyDbExperimentOptions opt = KvOptions();
  opt.env.fault_seed = 999;
  opt.env.fault_tunables.poison_read_retries = 7;
  const auto with_env =
      core::RunKeyDbExperiment(core::CapacityConfig::kHotPromote, workload::YcsbWorkload::kA, opt);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(with_env.ok());
  EXPECT_DOUBLE_EQ(baseline->server.throughput_kops, with_env->server.throughput_kops);
  EXPECT_DOUBLE_EQ(baseline->server.avg_service_us, with_env->server.avg_service_us);
  EXPECT_EQ(baseline->server.all_latency_us.count(), with_env->server.all_latency_us.count());
  EXPECT_DOUBLE_EQ(baseline->server.all_latency_us.p999(), with_env->server.all_latency_us.p999());
  EXPECT_DOUBLE_EQ(baseline->server.migrated_bytes, with_env->server.migrated_bytes);
  EXPECT_EQ(with_env->server.poisoned_reads, 0u);
  EXPECT_EQ(with_env->server.shed_ops, 0u);
}

TEST(FaultEnvTest, FaultedSweepIsIdenticalAcrossJobs) {
  core::KeyDbExperimentOptions opt = KvOptions();
  opt.dataset_bytes = 8ull << 30;
  opt.total_ops = 60'000;
  opt.env.faults = fault::FaultPlan().Downtrain(0.05, kInf, 8).Poison(0.0, kInf, 5e-4);
  opt.env.fault_seed = 42;

  opt.env.jobs = 1;
  const auto serial = core::RunVmCxlOnlyExperiment(opt);
  opt.env.jobs = 8;
  const auto fanned = core::RunVmCxlOnlyExperiment(opt);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(fanned.ok());
  EXPECT_DOUBLE_EQ(serial->mmem.server.throughput_kops, fanned->mmem.server.throughput_kops);
  EXPECT_DOUBLE_EQ(serial->cxl.server.throughput_kops, fanned->cxl.server.throughput_kops);
  EXPECT_EQ(serial->mmem.server.poisoned_reads, fanned->mmem.server.poisoned_reads);
  EXPECT_EQ(serial->cxl.server.poisoned_reads, fanned->cxl.server.poisoned_reads);
  EXPECT_DOUBLE_EQ(serial->throughput_penalty, fanned->throughput_penalty);
}

}  // namespace
}  // namespace cxl
