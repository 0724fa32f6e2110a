// The daemon's warm set against eager references. Seeded scenarios drive
// every policy through sparse, dense and dense-then-sparse access regimes,
// with quarantine, free/re-allocate churn, late allocations, daemon stalls,
// promotion-failure backoff and policy skips mixed in. Every tick checks
//  - the heat column bit for bit against a shadow column the test decays
//    eagerly, every slot on every tick that decays;
//  - that the demoted pages are the coldest pre-tick DRAM pages by
//    (heat, id);
//  - the candidate count against a brute-force count of the policy's
//    predicate over the pre-tick columns;
//  - the promotion feedback the policy observes (recent_promoted,
//    recent_promoted_hot) against a brute-force count over the pre-tick
//    columns and promotion stamps, and that every page the tick moved into
//    DRAM carries this tick's stamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/kv/kvstore.h"
#include "src/core/configs.h"
#include "src/fault/fault.h"
#include "src/os/page_allocator.h"
#include "src/os/policy.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"
#include "src/util/distribution.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/ycsb.h"

namespace cxl::os {
namespace {

using Entry = std::pair<float, PageId>;

// The daemon's promotion-stamp window (tiering.cc).
constexpr uint32_t kPromoteStampWindowTicks = 8;

// 8192 DRAM pages of 4 KiB, so the 4096-page demotion pool is a strict
// subset of DRAM, and room on CXL for the over-commit and a filler that
// fills it.
constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kDramPages = 8192;
constexpr uint64_t kCxlPages = 12288;
constexpr uint64_t kInitialPages = 12288;

topology::Platform SmallPlatform() {
  topology::PlatformOptions opt;
  opt.sockets = 1;
  opt.dram_per_socket = kDramPages * kPageBytes;
  opt.cxl_cards = 1;
  opt.cxl_card_capacity = kCxlPages * kPageBytes;
  return topology::Platform::Build(opt);
}

// Forwards to the daemon's own policy and records whether this tick
// reached the policy, what it decided and what it was shown afterwards: a
// tick that decides without skipping scans and decays, every other tick
// does neither.
class RecordingPolicy final : public TieringPolicy {
 public:
  explicit RecordingPolicy(TieringPolicy& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  int32_t event_reason() const override { return inner_.event_reason(); }
  TickDecision Decide(const TickContext& ctx) override {
    decided = true;
    decision = inner_.Decide(ctx);
    return decision;
  }
  void Observe(const TickObservation& obs) override {
    observed = true;
    observation = obs;
    inner_.Observe(obs);
  }
  double hot_threshold() const override { return inner_.hot_threshold(); }

  bool decided = false;
  TickDecision decision;
  bool observed = false;
  TickObservation observation;

 private:
  TieringPolicy& inner_;
};

enum class Regime { kSparseZipf, kDenseStreaming, kDenseThenSparse };

struct Scenario {
  const char* policy;
  Regime regime;
  bool zero_threshold;  // initial_hot_threshold = 0, dynamic_threshold = false.
};

void PrintTo(const Scenario& s, std::ostream* os) {
  static const char* const kRegimes[] = {"sparse", "dense", "dense-then-sparse"};
  *os << s.policy << "/" << kRegimes[static_cast<int>(s.regime)]
      << (s.zero_threshold ? "/zero-threshold" : "");
}

TieringConfig ScenarioConfig(const Scenario& s) {
  TieringConfig cfg;
  cfg.policy = s.policy;
  cfg.hint_fault_sample_rate = 0.25;
  cfg.promote_rate_limit_mbps = 4.0;  // ~976 pages per 1 s tick.
  if (s.zero_threshold) {
    cfg.initial_hot_threshold = 0.0;
    cfg.dynamic_threshold = false;
  }
  return cfg;
}

// Counts of what a scenario exercised, so the checks are known to bite.
struct Coverage {
  uint64_t ticks = 0;
  uint64_t daemon_skips = 0;  // Stalled or backed-off: the policy never decided.
  uint64_t policy_skips = 0;
  uint64_t candidates = 0;
  uint64_t promoted = 0;
  uint64_t demoted = 0;
  uint64_t recent_promoted = 0;  // Summed promotion feedback the policy saw.
  uint64_t recent_promoted_hot = 0;
  uint64_t zeroed = 0;  // Shadow slots decayed from heat > 0 to exactly 0.
  bool subnormal = false;
};

class Harness {
 public:
  Harness(const TieringConfig& config, fault::FaultPlan plan)
      : platform_(SmallPlatform()),
        alloc_(platform_, kPageBytes),
        tiering_(alloc_, config),
        faults_(std::move(plan)),
        recorder_(tiering_.policy()) {
    TieredMemory::Observers observers;
    observers.faults = &faults_;
    observers.policy = &recorder_;
    tiering_.Attach(observers);
  }

  std::vector<PageId> Allocate(uint64_t count, const NumaPolicy& policy) {
    auto pages = alloc_.Allocate(policy, count);
    EXPECT_TRUE(pages.ok());
    shadow_.resize(alloc_.page_count(), 0.0f);
    for (const PageId id : *pages) {
      shadow_[id] = 0.0f;  // Allocation resets heat.
    }
    return {pages->begin(), pages->end()};
  }

  void Free(const std::vector<PageId>& pages) {
    alloc_.Free(PageRuns(pages.begin(), pages.end()));
  }

  void Access(PageId id, uint64_t accesses) {
    tiering_.RecordAccess(id, accesses);
    shadow_[id] += static_cast<float>(static_cast<double>(accesses) *
                                      tiering_.config().hint_fault_sample_rate);
  }

  void Quarantine(PageId id) {
    if (tiering_.QuarantinePage(id)) {
      shadow_[id] = 0.0f;
      quarantined_.insert(id);
    }
  }

  // One daemon tick at simulated time `ticks` seconds, checked against the
  // eager references.
  ::testing::AssertionResult Tick(TieredMemory::TickResult* result = nullptr) {
    faults_.AdvanceTo(static_cast<double>(coverage_.ticks));
    const uint32_t epoch = static_cast<uint32_t>(coverage_.ticks);
    const uint64_t n = alloc_.page_count();
    const std::vector<topology::NodeId> node(alloc_.node_column(), alloc_.node_column() + n);
    const std::vector<float> heat(alloc_.heat_column(), alloc_.heat_column() + n);
    const std::vector<uint32_t> touched(alloc_.epoch_column(), alloc_.epoch_column() + n);
    std::vector<uint32_t> stamp(n);
    for (PageId id = 0; id < n; ++id) {
      stamp[id] = tiering_.PromoteStamp(id);
    }

    recorder_.decided = false;
    recorder_.observed = false;
    const TieredMemory::TickResult r = tiering_.Tick(1.0);
    if (result != nullptr) {
      *result = r;
    }
    ++coverage_.ticks;
    const bool ran = recorder_.decided && !recorder_.decision.skip_tick;
    coverage_.daemon_skips += recorder_.decided ? 0 : 1;
    coverage_.policy_skips += recorder_.decided && recorder_.decision.skip_tick ? 1 : 0;

    if (ran) {
      const float decay = static_cast<float>(tiering_.config().heat_decay);
      for (float& h : shadow_) {
        const float before = h;
        h *= decay;
        coverage_.zeroed += before != 0.0f && h == 0.0f ? 1 : 0;
        coverage_.subnormal |= std::fpclassify(h) == FP_SUBNORMAL;
      }
    }
    if (std::memcmp(alloc_.heat_column(), shadow_.data(), n * sizeof(float)) != 0) {
      PageId first = 0;
      while (std::memcmp(&alloc_.heat_column()[first], &shadow_[first], sizeof(float)) == 0) {
        ++first;
      }
      return ::testing::AssertionFailure()
             << "tick " << epoch << ": heat of page " << first << " is "
             << alloc_.heat_column()[first] << ", the eager decay gives " << shadow_[first];
    }

    const auto is_dram = [&](topology::NodeId nd) { return nd >= 0 && alloc_.IsDramNode(nd); };
    uint64_t expected_candidates = 0;
    if (ran) {
      const TickDecision& d = recorder_.decision;
      for (PageId id = 0; id < n; ++id) {
        if (node[id] < 0 || is_dram(node[id]) || quarantined_.count(id) != 0) {
          continue;
        }
        bool qualifies = false;
        switch (d.scan) {
          case CandidateScan::kHotnessRanked:
            qualifies = heat[id] >= d.hot_threshold;
            break;
          case CandidateScan::kRecency:
            qualifies = touched[id] == epoch && heat[id] > 0.0f;
            break;
          case CandidateScan::kSecondAccess:
            qualifies = heat[id] >= 2.0f;
            break;
        }
        expected_candidates += qualifies ? 1 : 0;
      }
    }
    if (r.candidates != expected_candidates) {
      return ::testing::AssertionFailure() << "tick " << epoch << ": " << r.candidates
                                           << " candidates, brute force counts "
                                           << expected_candidates;
    }

    // Promotion feedback: only the hotness-ranked scan counts it, and only
    // a tick with pages on CXL scans. A page counts while in DRAM within the
    // stamp window after its promotion, and is hot if touched this interval.
    uint64_t expected_recent = 0;
    uint64_t expected_recent_hot = 0;
    const bool any_cxl = std::any_of(node.begin(), node.end(), [&](topology::NodeId nd) {
      return nd >= 0 && !is_dram(nd);
    });
    if (ran && recorder_.decision.scan == CandidateScan::kHotnessRanked && any_cxl) {
      for (PageId id = 0; id < n; ++id) {
        const uint32_t age = epoch - (stamp[id] - 1);
        if (is_dram(node[id]) && stamp[id] != 0 && age >= 1 &&
            age <= kPromoteStampWindowTicks) {
          ++expected_recent;
          expected_recent_hot += touched[id] == epoch ? 1 : 0;
        }
      }
    }
    const TickObservation& obs = recorder_.observation;
    if (recorder_.observed != ran ||
        (ran && (obs.recent_promoted != expected_recent ||
                 obs.recent_promoted_hot != expected_recent_hot))) {
      return ::testing::AssertionFailure()
             << "tick " << epoch << ": policy observed " << recorder_.observed << " with "
             << obs.recent_promoted << " recently promoted / " << obs.recent_promoted_hot
             << " hot, brute force counts " << expected_recent << " / " << expected_recent_hot;
    }

    // Each demotion takes the coldest page then in DRAM, and no page left
    // DRAM and came back within the tick, so the pre-tick DRAM pages
    // demoted are the coldest of them: all sort below every one kept. A
    // page promoted and demoted within the tick shows in neither count.
    const topology::NodeId* after = alloc_.node_column();
    uint64_t demoted = 0;
    uint64_t promoted = 0;
    Entry warmest_demoted(-std::numeric_limits<float>::infinity(), 0);
    Entry coldest_kept(std::numeric_limits<float>::infinity(), kInvalidPage);
    for (PageId id = 0; id < n; ++id) {
      const Entry e(heat[id], id);
      if (is_dram(node[id]) && !is_dram(after[id])) {
        ++demoted;
        warmest_demoted = std::max(warmest_demoted, e);
      } else if (is_dram(node[id])) {
        coldest_kept = std::min(coldest_kept, e);
      } else if (is_dram(after[id])) {
        ++promoted;
        if (tiering_.PromoteStamp(id) != epoch + 1) {
          return ::testing::AssertionFailure()
                 << "tick " << epoch << ": promoted page " << id << " has stamp "
                 << tiering_.PromoteStamp(id);
        }
      }
    }
    if (demoted > 0 && !(warmest_demoted < coldest_kept)) {
      return ::testing::AssertionFailure()
             << "tick " << epoch << ": demoted page " << warmest_demoted.second << " (heat "
             << warmest_demoted.first << ") is not colder than kept page "
             << coldest_kept.second << " (heat " << coldest_kept.first << ")";
    }
    if (r.demoted_pages < demoted || r.promoted_pages < promoted ||
        r.demoted_pages - demoted != r.promoted_pages - promoted) {
      return ::testing::AssertionFailure()
             << "tick " << epoch << ": reported " << r.promoted_pages << " promoted / "
             << r.demoted_pages << " demoted, columns show " << promoted << " / " << demoted;
    }
    coverage_.recent_promoted += ran ? obs.recent_promoted : 0;
    coverage_.recent_promoted_hot += ran ? obs.recent_promoted_hot : 0;
    coverage_.candidates += r.candidates;
    coverage_.promoted += r.promoted_pages;
    coverage_.demoted += r.demoted_pages;
    return ::testing::AssertionSuccess();
  }

  const topology::Platform& platform() const { return platform_; }
  PageAllocator& alloc() { return alloc_; }
  TieredMemory& tiering() { return tiering_; }
  const Coverage& coverage() const { return coverage_; }

 private:
  topology::Platform platform_;
  PageAllocator alloc_;
  TieredMemory tiering_;
  fault::FaultInjector faults_;
  RecordingPolicy recorder_;
  std::vector<float> shadow_;
  std::set<PageId> quarantined_;
  Coverage coverage_;
};

class WarmSetTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(WarmSetTest, MatchesEagerReferencesEveryTick) {
  const Scenario& sc = GetParam();
  // A daemon stall over ticks 20-22 and a down-train over 44-49, which the
  // adaptive policy sits out; the filler at ticks 30-35 arms backoff.
  fault::FaultPlan plan;
  plan.DaemonStall(20.0, 3.0).Downtrain(44.0, 6.0, 4);
  Harness h(ScenarioConfig(sc), std::move(plan));
  const auto dram = h.platform().DramNodes();
  const auto cxl = h.platform().CxlNodes();
  // Allocated after the daemon exists, like every later allocation.
  std::vector<PageId> live = h.Allocate(kInitialPages, NumaPolicy::Preferred(dram));

  const int ticks = sc.regime == Regime::kDenseThenSparse ? 230 : 60;
  Rng rng(0x5eed0000u + static_cast<uint64_t>(sc.regime) * 31 + (sc.zero_threshold ? 7 : 0));
  ScrambledZipfianDistribution zipf(kInitialPages);
  uint64_t cursor = 0;
  std::vector<PageId> filler;
  for (int t = 0; t < ticks; ++t) {
    const bool dense = sc.regime == Regime::kDenseStreaming ||
                       (sc.regime == Regime::kDenseThenSparse && t < 40);
    if (dense) {
      const uint64_t window = live.size() / 5;
      for (uint64_t i = 0; i < window; ++i) {
        h.Access(live[(cursor + i) % live.size()], 8);
      }
      cursor = (cursor + window) % live.size();
    } else {
      const int draws = sc.regime == Regime::kSparseZipf ? 300 : 30;
      for (int i = 0; i < draws; ++i) {
        h.Access(live[zipf.Next(rng) % live.size()], 1 + rng.NextBounded(8));
      }
    }

    const auto warm_on = [&](bool want_dram) {
      for (const PageId id : live) {
        const topology::NodeId nd = h.alloc().NodeOf(id);
        if (h.alloc().page(id).heat > 0.0f && h.alloc().IsDramNode(nd) == want_dram) {
          return id;
        }
      }
      return live.front();
    };
    if (t == 5) {  // Late pages, past the warm set's first size.
      const auto more = h.Allocate(1500, NumaPolicy::Preferred(dram));
      live.insert(live.end(), more.begin(), more.end());
    } else if (t == 12) {  // A warm DRAM page, a warm CXL page, a cold one.
      h.Quarantine(warm_on(true));
      h.Quarantine(warm_on(false));
      h.Quarantine(live[live.size() / 2]);
    } else if (t == 16) {  // Free warm pages, then hand their ids out again.
      std::vector<PageId> freed;
      std::vector<PageId> kept;
      for (const PageId id : live) {
        (freed.size() < 400 && h.alloc().page(id).heat > 0.0f ? freed : kept).push_back(id);
      }
      h.Free(freed);
      live = kept;
      const auto again = h.Allocate(freed.size(), NumaPolicy::Preferred(dram));
      live.insert(live.end(), again.begin(), again.end());
    } else if (t == 30) {  // Fill the machine: promotions fail and back off.
      for (const auto& nodes : {dram, cxl}) {
        for (const topology::NodeId nd : nodes) {
          const auto more = h.Allocate(h.alloc().FreePages(nd), NumaPolicy::Bind({nd}));
          filler.insert(filler.end(), more.begin(), more.end());
        }
      }
    } else if (t == 32) {  // CXL is full: the warm DRAM page stays, at heat 0.
      h.Quarantine(warm_on(true));
    } else if (t == 36) {
      h.Free(filler);
    }
    ASSERT_TRUE(h.Tick());
  }

  const Coverage& c = h.coverage();
  EXPECT_GT(c.daemon_skips, 3u);  // The stall and backoff.
  EXPECT_GT(c.promoted, 0u);
  EXPECT_GT(c.demoted, 0u);
  if (std::string(sc.policy) == "adaptive-feedback") {
    EXPECT_GT(c.policy_skips, 0u);
  }
  if (std::string(sc.policy) == "hot-page-selection" ||
      std::string(sc.policy) == "adaptive-feedback") {
    EXPECT_GT(c.recent_promoted_hot, 0u);  // Feedback the brute force checked.
    EXPECT_GT(c.recent_promoted, c.recent_promoted_hot);
  }
  if (sc.regime == Regime::kDenseThenSparse) {
    // The dense phase's pages decay through the subnormals to exactly 0.
    EXPECT_TRUE(c.subnormal);
    EXPECT_GT(c.zeroed, kInitialPages / 2);
  }
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> out;
  for (const Regime regime :
       {Regime::kSparseZipf, Regime::kDenseStreaming, Regime::kDenseThenSparse}) {
    for (const char* policy :
         {"hot-page-selection", "mru-balancing", "tpp-like", "adaptive-feedback"}) {
      out.push_back({policy, regime, false});
    }
    out.push_back({"hot-page-selection", regime, true});
  }
  return out;
}

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  static const char* const kRegimes[] = {"Sparse", "Dense", "DenseThenSparse"};
  std::string name = info.param.policy;
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_" + kRegimes[static_cast<int>(info.param.regime)] +
         (info.param.zero_threshold ? "_ZeroThreshold" : "");
}

INSTANTIATE_TEST_SUITE_P(Policies, WarmSetTest, ::testing::ValuesIn(AllScenarios()),
                         ScenarioName);

// One page warmed once on an all-CXL machine (nothing promotes past an
// unreachable threshold, nothing sits in DRAM): its heat halves through the
// subnormals to exactly 0, and then the page leaves the warm set, so a
// tick visits no page at all.
TEST(WarmSetUnderflowTest, HeatReachesZeroThroughSubnormalsAndLeavesTheSet) {
  TieringConfig cfg;
  cfg.initial_hot_threshold = 1e9;
  cfg.dynamic_threshold = false;
  Harness h(cfg, fault::FaultPlan());
  const auto pages = h.Allocate(64, NumaPolicy::Bind(h.platform().CxlNodes()));
  h.Access(pages[5], 1000);
  TieredMemory::TickResult r;
  int ticks_warm = 0;
  while (h.alloc().page(pages[5]).heat != 0.0f) {
    ASSERT_TRUE(h.Tick(&r));
    EXPECT_EQ(r.pages_visited, 2u);  // The page's visit in the pass and in the decay.
    ASSERT_LT(++ticks_warm, 400);
  }
  EXPECT_TRUE(h.coverage().subnormal);
  EXPECT_EQ(h.coverage().zeroed, 1u);
  ASSERT_TRUE(h.Tick(&r));
  EXPECT_EQ(r.pages_visited, 0u);
}

// The walk for zero-heat DRAM pages resumes where the last one found its
// first page. Quarantining a warm DRAM page below that point while CXL is
// full (so the page stays in DRAM, at heat 0) must put it back in the walk:
// the next demotion takes it first.
TEST(WarmSetColdPoolTest, QuarantinedPageBelowTheWalkIsDemotedFirst) {
  TieringConfig cfg;
  cfg.policy = "hot-page-selection";
  cfg.hint_fault_sample_rate = 0.25;
  cfg.initial_hot_threshold = 1.0;
  cfg.dynamic_threshold = false;
  cfg.promote_rate_limit_mbps = 4.0;  // ~976 pages per 1 s tick.
  Harness h(cfg, fault::FaultPlan());
  const auto cxl = h.platform().CxlNodes();
  // DRAM fills first: ids below kDramPages are DRAM, the rest CXL.
  const std::vector<PageId> pages =
      h.Allocate(kInitialPages, NumaPolicy::Preferred(h.platform().DramNodes()));
  constexpr PageId kWarmDram = 8;  // Sparse: one word with fewer than 16 warm bits.
  const PageId quarantined = pages[5];
  PageId next_hot = kDramPages;
  const auto interval = [&] {
    for (PageId id = 0; id < kWarmDram; ++id) {
      if (h.tiering().QuarantinedPages() == 0 || pages[id] != quarantined) {
        h.Access(pages[id], 4);
      }
    }
    for (int i = 0; i < 500 && next_hot < kInitialPages; ++i) {
      h.Access(pages[next_hot++], 8);
    }
  };
  // Promotions demote the zero-heat DRAM pages from id kWarmDram upward.
  for (int t = 0; t < 4; ++t) {
    interval();
    ASSERT_TRUE(h.Tick());
  }
  ASSERT_EQ(h.alloc().NodeOf(pages[kWarmDram + 1000]), cxl.front());
  const std::vector<PageId> filler =
      h.Allocate(h.alloc().FreePages(cxl.front()), NumaPolicy::Bind(cxl));
  ASSERT_TRUE(h.Tick());  // No candidates, so nothing moves; the walk runs.
  ASSERT_EQ(h.alloc().FreePages(cxl.front()), 0u);
  h.Quarantine(quarantined);
  ASSERT_TRUE(h.alloc().IsDramNode(h.alloc().NodeOf(quarantined)));
  h.Free(filler);
  interval();
  TieredMemory::TickResult r;
  ASSERT_TRUE(h.Tick(&r));
  EXPECT_GT(r.demoted_pages, 0u);
  EXPECT_EQ(h.alloc().NodeOf(quarantined), cxl.front());
}

// kv-hotpromote's shape (hostbench and bench_fig5): 32 GiB of 1 KiB
// records on 16 KiB pages, Hot-Promote platform and tiering defaults,
// YCSB-A, one tick per 10,000 operations. The warm set stays a small
// fraction of the 2,097,152 page slots, and so does each tick's work.
TEST(WarmSetWorkTest, KvHotPromoteTickVisitsAtMostATenthOfThePages) {
  constexpr uint64_t kDatasetBytes = 32ull << 30;
  const topology::Platform platform = core::MakeHotPromotePlatform(kDatasetBytes);
  const core::CapacitySetup setup =
      core::MakeCapacitySetup(core::CapacityConfig::kHotPromote, platform);
  PageAllocator alloc(platform, 16 * kKiB);
  TieringConfig cfg = core::DefaultTieringConfig();
  cfg.policy = "hot-page-selection";
  TieredMemory tiering(alloc, cfg);
  apps::kv::KvStoreConfig store_cfg;
  store_cfg.record_count = kDatasetBytes / store_cfg.value_bytes;
  auto store = apps::kv::KvStore::Create(alloc, setup.policy, store_cfg, &tiering);
  ASSERT_TRUE(store.ok());
  workload::YcsbGenerator gen(workload::YcsbWorkload::kA, store_cfg.record_count, 1);
  uint64_t promoted = 0;
  for (int tick = 0; tick < 22; ++tick) {
    for (int op = 0; op < 10'000; ++op) {
      store->Access(gen.Next());
    }
    const TieredMemory::TickResult r = tiering.Tick(0.05);
    EXPECT_LE(r.pages_visited, alloc.page_count() / 10) << "tick " << tick;
    promoted += r.promoted_pages;
  }
  EXPECT_GT(promoted, 0u);
}

}  // namespace
}  // namespace cxl::os
