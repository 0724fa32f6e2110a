// Pluggable tiering-policy surface: registry resolution and
// the AdaptiveFeedbackPolicy feedback loops (thrash-driven budget cuts,
// degraded-link backoff).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/os/page_allocator.h"
#include "src/os/policy.h"
#include "src/os/policy_registry.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"

namespace cxl::os {
namespace {

using topology::Platform;

constexpr double kInf = 1e18;

// --- Registry --------------------------------------------------------------

TEST(PolicyRegistryTest, BuiltInsKnowAllFourPolicies) {
  const PolicyRegistry registry = PolicyRegistry::BuiltIns();
  const std::vector<std::string> names = registry.Names();
  ASSERT_EQ(names.size(), 4u);
  // std::map order: sorted.
  EXPECT_EQ(names[0], kAdaptiveFeedbackPolicyName);
  EXPECT_EQ(names[1], kHotPageSelectionPolicyName);
  EXPECT_EQ(names[2], kMruBalancingPolicyName);
  EXPECT_EQ(names[3], kTppLikePolicyName);
  for (const auto& name : names) {
    EXPECT_TRUE(registry.Has(name));
    const TieringConfig cfg;
    auto policy = registry.Create(name, cfg);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_STREQ((*policy)->name(), name.c_str());
  }
}

TEST(PolicyRegistryTest, UnknownNameListsKnownOnes) {
  const PolicyRegistry registry = PolicyRegistry::BuiltIns();
  EXPECT_FALSE(registry.Has("nope"));
  const TieringConfig cfg;
  const auto policy = registry.Create("nope", cfg);
  ASSERT_FALSE(policy.ok());
  EXPECT_NE(policy.status().message().find(kHotPageSelectionPolicyName), std::string::npos);
}

TEST(PolicyRegistryTest, RejectsDuplicatesAndEmptyNames) {
  PolicyRegistry registry = PolicyRegistry::BuiltIns();
  auto make = [](const TieringConfig& cfg) {
    return std::unique_ptr<TieringPolicy>(new TppLikePolicy(cfg));
  };
  EXPECT_FALSE(registry.Register(kTppLikePolicyName, make).ok());
  EXPECT_FALSE(registry.Register("", make).ok());
  ASSERT_TRUE(registry.Register("third-party", make).ok());
  EXPECT_TRUE(registry.Has("third-party"));
}

// --- Daemon integration ----------------------------------------------------

class PolicyDaemonTest : public ::testing::Test {
 protected:
  PolicyDaemonTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(PolicyDaemonTest, AttachedPolicyOverrideDrivesTicksAndObserves) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 1.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  HotPageSelectionPolicy mine(cfg);
  TieredMemory::Observers obs;
  obs.policy = &mine;
  tiering.Attach(obs);
  EXPECT_EQ(&tiering.policy(), &mine);

  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 4);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 4);
  }
  EXPECT_EQ(tiering.Tick(1.0).promoted_pages, 4u);

  // Detaching falls back to the config-owned policy.
  tiering.Attach(TieredMemory::Observers{});
  EXPECT_NE(&tiering.policy(), &mine);
  EXPECT_STREQ(tiering.policy().name(), kHotPageSelectionPolicyName);
}

// Runs `ticks` daemon intervals of a streaming scan: each tick touches the
// next `window` pages (wrapping), so promoted pages go cold immediately —
// the §4.2.2 thrash regime.
uint64_t RunStreaming(TieredMemory& tiering, const PageRuns& pages, int ticks,
                      size_t window) {
  uint64_t promoted = 0;
  size_t cursor = 0;
  for (int t = 0; t < ticks; ++t) {
    for (size_t i = 0; i < window; ++i) {
      tiering.RecordAccess(pages[(cursor + i) % pages.size()], 8);
    }
    cursor = (cursor + window) % pages.size();
    promoted += tiering.Tick(1.0).promoted_pages;
  }
  return promoted;
}

TEST_F(PolicyDaemonTest, AdaptiveCutsPromotionBudgetUnderStreaming) {
  // DRAM deliberately small so promotions force demotions (ping-pong).
  TieringConfig cfg;
  cfg.policy = kAdaptiveFeedbackPolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 4.0;
  cfg.dynamic_threshold = false;
  cfg.promote_rate_limit_mbps = 128.0;  // 64 pages/tick at 2 MiB.
  TieredMemory tiering(alloc_, cfg);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 2048);
  ASSERT_TRUE(pages.ok());

  RunStreaming(tiering, *pages, 24, 256);
  const auto& adaptive = dynamic_cast<const AdaptiveFeedbackPolicy&>(tiering.policy());
  // The stream never re-touches promoted pages: the learned aggressiveness
  // must have been cut well below full budget.
  EXPECT_LT(adaptive.aggressiveness(), 0.5);
  EXPECT_GE(adaptive.smoothed_reaccess(), 0.0);  // Signal was observed...
  EXPECT_LT(adaptive.smoothed_reaccess(), 0.5);  // ...and shows the waste.
}

TEST_F(PolicyDaemonTest, AdaptiveMigratesLessThanHotPageSelectionOnStreaming) {
  auto run = [&](const char* policy) {
    PageAllocator alloc(platform_);
    TieringConfig cfg;
    cfg.policy = policy;
    cfg.hint_fault_sample_rate = 1.0;
    cfg.initial_hot_threshold = 4.0;
    cfg.dynamic_threshold = false;
    cfg.promote_rate_limit_mbps = 128.0;
    TieredMemory tiering(alloc, cfg);
    const auto cxl0 = platform_.CxlNodes()[0];
    auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 2048);
    EXPECT_TRUE(pages.ok());
    return RunStreaming(tiering, *pages, 24, 256);
  };
  const uint64_t hps = run(kHotPageSelectionPolicyName);
  const uint64_t adaptive = run(kAdaptiveFeedbackPolicyName);
  EXPECT_LT(adaptive, hps / 2);  // Learned to stop paying for wasted moves.
}

TEST_F(PolicyDaemonTest, AdaptiveMatchesHotPageSelectionOnStableHotSet) {
  // A fixed hot set re-touched every tick: re-access stays high, no thrash
  // evidence, so the adaptive policy must behave exactly like hot page
  // selection (aggressiveness pinned at 1.0).
  auto run = [&](const char* policy) {
    PageAllocator alloc(platform_);
    TieringConfig cfg;
    cfg.policy = policy;
    cfg.hint_fault_sample_rate = 1.0;
    cfg.initial_hot_threshold = 4.0;
    cfg.dynamic_threshold = false;
    cfg.promote_rate_limit_mbps = 64.0;  // 32 pages/tick.
    TieredMemory tiering(alloc, cfg);
    const auto cxl0 = platform_.CxlNodes()[0];
    auto pages = alloc.Allocate(NumaPolicy::Bind({cxl0}), 512);
    EXPECT_TRUE(pages.ok());
    uint64_t promoted = 0;
    for (int t = 0; t < 16; ++t) {
      for (size_t i = 0; i < 128; ++i) {
        tiering.RecordAccess((*pages)[i], 8);
      }
      promoted += tiering.Tick(1.0).promoted_pages;
    }
    return promoted;
  };
  EXPECT_EQ(run(kAdaptiveFeedbackPolicyName), run(kHotPageSelectionPolicyName));
}

TEST_F(PolicyDaemonTest, AdaptiveBacksOffDuringDowntrainAndRecovers) {
  TieringConfig cfg;
  cfg.policy = kAdaptiveFeedbackPolicyName;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 1.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  // Link degraded from t=2s to t=10s.
  fault::FaultInjector faults(fault::FaultPlan().Downtrain(2.0, 8.0, 4));
  TieredMemory::Observers obs;
  obs.faults = &faults;
  tiering.Attach(obs);

  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 512);
  ASSERT_TRUE(pages.ok());
  const auto& adaptive = dynamic_cast<const AdaptiveFeedbackPolicy&>(tiering.policy());

  auto tick_at = [&](double t_s) {
    for (size_t i = 0; i < 64; ++i) {
      tiering.RecordAccess((*pages)[(static_cast<size_t>(t_s) * 64 + i) % pages->size()], 8);
    }
    faults.AdvanceTo(t_s);
    return tiering.Tick(1.0);
  };

  // Healthy ticks promote freely.
  EXPECT_GT(tick_at(0.0).promoted_pages, 0u);
  EXPECT_GT(tick_at(1.0).promoted_pages, 0u);
  EXPECT_FALSE(adaptive.backing_off());

  // Inside the window: the first degraded tick probes, then skip runs grow
  // exponentially — most ticks promote nothing and leave heat undecayed.
  uint64_t degraded_promoted = 0;
  uint64_t skipped = 0;
  for (int t = 2; t < 10; ++t) {
    const auto r = tick_at(static_cast<double>(t));
    degraded_promoted += r.promoted_pages;
    if (r.promoted_pages == 0 && r.candidates == 0) {
      ++skipped;
    }
  }
  EXPECT_TRUE(adaptive.backing_off());
  EXPECT_GE(skipped, 5u);  // 1 probe, then runs of 2, 4, ... skips.

  // Window closed: backoff resets immediately and promotion resumes.
  const auto recovered = tick_at(10.0);
  EXPECT_FALSE(adaptive.backing_off());
  EXPECT_GT(recovered.promoted_pages, 0u);
}

TEST_F(PolicyDaemonTest, LegacyPoliciesIgnoreDegradedLinks) {
  // The skip behaviour is the adaptive policy's, not the daemon's: hot page
  // selection keeps promoting through a down-train window.
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  cfg.initial_hot_threshold = 1.0;
  cfg.dynamic_threshold = false;
  TieredMemory tiering(alloc_, cfg);
  fault::FaultInjector faults(fault::FaultPlan().Downtrain(0.0, kInf, 4));
  faults.AdvanceTo(0.0);
  TieredMemory::Observers obs;
  obs.faults = &faults;
  tiering.Attach(obs);
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 8);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    tiering.RecordAccess(id, 8);
  }
  EXPECT_EQ(tiering.Tick(1.0).promoted_pages, 8u);
}

}  // namespace
}  // namespace cxl::os
