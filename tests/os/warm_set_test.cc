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
//    DRAM carries this tick's stamp;
//  - the allocator's occupancy counts, residency bitsets and free stack
//    (check::AllocatorInvariantViolations);
//  - the daemon's warm set, per-word heat bounds and quarantine
//    (check::TieringInvariantViolations).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
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
#include "src/check/invariants.h"
#include "src/core/configs.h"
#include "src/fault/fault.h"
#include "src/os/page_allocator.h"
#include "src/os/page_runs.h"
#include "src/os/policy.h"
#include "src/os/policy_registry.h"
#include "src/os/region.h"
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

// Decides every tick alike: the hotness-ranked scan at a fixed threshold
// and budget. Lets a test put the threshold exactly where it wants it.
class FixedPolicy final : public TieringPolicy {
 public:
  FixedPolicy(double threshold, uint64_t budget_pages)
      : threshold_(threshold), budget_pages_(budget_pages) {}
  const char* name() const override { return "fixed"; }
  int32_t event_reason() const override { return 0; }
  TickDecision Decide(const TickContext&) override {
    TickDecision d;
    d.scan = CandidateScan::kHotnessRanked;
    d.hot_threshold = threshold_;
    d.budget_pages = budget_pages_;
    return d;
  }
  void Observe(const TickObservation&) override {}
  double hot_threshold() const override { return threshold_; }

 private:
  double threshold_;
  uint64_t budget_pages_;
};

class Harness {
 public:
  // Ticks `config`'s policy, or `policy` when one is given (it must outlive
  // the harness), on `platform` with kPageBytes pages.
  Harness(const TieringConfig& config, fault::FaultPlan plan, TieringPolicy* policy = nullptr,
          topology::Platform platform = SmallPlatform())
      : platform_(std::move(platform)),
        alloc_(platform_, kPageBytes),
        tiering_(alloc_, config),
        faults_(std::move(plan)),
        recorder_(policy != nullptr ? *policy : tiering_.policy()) {
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

  // Access for every id of [first, first + count), in one RecordAccessRun.
  void AccessSpan(PageId first, uint64_t count, uint64_t accesses) {
    tiering_.RecordAccessRun(first, count, accesses);
    const float add = static_cast<float>(static_cast<double>(accesses) *
                                         tiering_.config().hint_fault_sample_rate);
    for (PageId id = first; id < first + count; ++id) {
      shadow_[id] += add;
    }
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
    const std::vector<float> heat = Heats();
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
    const std::vector<float> heat_after = Heats();
    if (std::memcmp(heat_after.data(), shadow_.data(), n * sizeof(float)) != 0) {
      PageId first = 0;
      while (std::memcmp(&heat_after[first], &shadow_[first], sizeof(float)) == 0) {
        ++first;
      }
      return ::testing::AssertionFailure()
             << "tick " << epoch << ": heat of page " << first << " is " << heat_after[first]
             << ", the eager decay gives " << shadow_[first];
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
    for (const std::vector<std::string>& audit :
         {check::AllocatorInvariantViolations(alloc_), check::TieringInvariantViolations(tiering_)}) {
      if (!audit.empty()) {
        return ::testing::AssertionFailure() << "tick " << epoch << ": " << audit.front();
      }
    }
    coverage_.recent_promoted += ran ? obs.recent_promoted : 0;
    coverage_.recent_promoted_hot += ran ? obs.recent_promoted_hot : 0;
    coverage_.candidates += r.candidates;
    coverage_.promoted += r.promoted_pages;
    coverage_.demoted += r.demoted_pages;
    return ::testing::AssertionSuccess();
  }

  // Every page's current heat, through the daemon's pending decays.
  std::vector<float> Heats() const {
    std::vector<float> heat(alloc_.page_count());
    for (PageId id = 0; id < heat.size(); ++id) {
      heat[id] = tiering_.Heat(id);
    }
    return heat;
  }
  float Heat(PageId id) const { return tiering_.Heat(id); }

  const topology::Platform& platform() const { return platform_; }
  // What the policy decided at the last tick that reached it.
  const TickDecision& decision() const { return recorder_.decision; }
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
      // The window as id spans of the live pages, the way Spark records
      // its stream; the churn below leaves several runs in either order.
      const PageRuns runs(live.begin(), live.end());
      const auto access = [&](PageId first, uint64_t count) { h.AccessSpan(first, count, 8); };
      const uint64_t end = cursor + live.size() / 5;
      runs.ForEachSpan(cursor, std::min<uint64_t>(end, live.size()), access);
      if (end > live.size()) {
        runs.ForEachSpan(0, end - live.size(), access);
      }
      cursor = end % live.size();
    } else {
      const int draws = sc.regime == Regime::kSparseZipf ? 300 : 30;
      for (int i = 0; i < draws; ++i) {
        h.Access(live[zipf.Next(rng) % live.size()], 1 + rng.NextBounded(8));
      }
    }

    const auto warm_on = [&](bool want_dram) {
      for (const PageId id : live) {
        const topology::NodeId nd = h.alloc().NodeOf(id);
        if (h.Heat(id) > 0.0f && h.alloc().IsDramNode(nd) == want_dram) {
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
        (freed.size() < 400 && h.Heat(id) > 0.0f ? freed : kept).push_back(id);
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

// n decays of `heat` as a per-tick sweep makes them: n multiplies.
float SequentialDecay(float heat, float factor, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    heat *= factor;
  }
  return heat;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

// HeatDecay takes n halvings as one multiply by 2^-n where the heat is at
// or above ldexp(FLT_MIN, n) (in chunks of at most 126). Every heat here,
// for n = 1..150, must come out as n sequential multiplies: 0, subnormals,
// FLT_MIN, FLT_MAX and +inf, each chunk limit ldexp(FLT_MIN, k) and its
// neighbouring floats, and the largest heat a binade or more below each
// limit for which one multiply would round differently (so a limit set too
// low fails). ApplyWord must give the same per page, for words whose pages
// all pass the limit and for words holding one that does not. A factor of
// 0.25 (m = 2) and one that is no power of two take the same checks.
TEST(HeatDecayTest, ShortcutMatchesSequentialMultiplies) {
  std::vector<float> heats = {0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              3 * std::numeric_limits<float>::denorm_min(),
                              std::nextafter(std::numeric_limits<float>::min(), 0.0f),
                              std::numeric_limits<float>::min(),
                              1.0f,
                              20.0f,
                              std::numeric_limits<float>::max(),
                              std::numeric_limits<float>::infinity()};
  for (int k = 1; k <= 126; ++k) {
    const float limit = std::ldexp(std::numeric_limits<float>::min(), k);
    heats.push_back(limit);
    heats.push_back(std::nextafter(limit, 0.0f));
    heats.push_back(std::nextafter(limit, 1e30f));
    for (int binades = 1; binades <= 3; ++binades) {
      heats.push_back(std::nextafter(std::ldexp(limit, -binades), 0.0f));
      heats.push_back(std::ldexp(0x1.fffff6p0f, k - 126 - binades));
    }
  }
  for (const float factor : {0.5f, 0.25f, 0.3f}) {
    const HeatDecay decay(factor);
    uint64_t shortcut_would_err = 0;  // Heats where one multiply differs: the test bites.
    for (uint32_t n = 1; n <= 150; ++n) {
      for (const float h : heats) {
        const float want = SequentialDecay(h, factor, n);
        EXPECT_TRUE(SameBits(decay.Apply(h, n), want))
            << "factor " << factor << ", heat " << std::hexfloat << h << ", n " << n << ": "
            << decay.Apply(h, n) << ", sequential " << want << std::defaultfloat;
        if (factor != 0.3f && n <= 126 / (factor == 0.5f ? 1u : 2u)) {
          const float one = h * std::pow(factor, static_cast<float>(n));
          shortcut_would_err += SameBits(one, want) ? 0 : 1;
        }
      }
      // Words of 64 heats, taken in order: all at or above the limit of n,
      // and mixed ones.
      for (size_t first = 0; first < heats.size(); first += 64) {
        for (const bool within : {true, false}) {
          std::array<float, 64> word{};
          for (size_t j = 0; j < word.size(); ++j) {
            const float h = heats[(first + j) % heats.size()];
            word[j] = within && !(h >= std::ldexp(std::numeric_limits<float>::min(),
                                                  static_cast<int>(std::min(n, 126u))))
                          ? 0.0f
                          : h;
          }
          std::array<float, 64> got = word;
          decay.ApplyWord(got.data(), n);
          for (size_t j = 0; j < word.size(); ++j) {
            EXPECT_TRUE(SameBits(got[j], SequentialDecay(word[j], factor, n)))
                << "factor " << factor << ", word heat " << std::hexfloat << word[j] << ", n "
                << n << std::defaultfloat;
          }
        }
      }
    }
    if (factor != 0.3f) {
      EXPECT_GT(shortcut_would_err, 100u) << "factor " << factor;
    }
  }
}

// Two daemons take the same SplitMix64-drawn sequence of operations:
// allocations, frees, single accesses, spans, quarantines, filling the
// machine (so promotions fail and back off), stalls and down-trains from a
// fault plan, and ticks. One brings every word current after every
// operation (SettleHeat), so its heat column is what an eager per-tick
// sweep leaves; the other never does. Before each tick the settled column
// must hold the lazy daemon's Heat() of every page. Every tick's results
// and what its policy decided and observed must agree bit for bit, and so
// must every page's Heat(), placement and promotion stamp. The work
// counters are exempt. 6,144 DRAM pages are never touched, so the pool is
// the zero-heat walk's and its cut lets the pass skip a dense block warmed
// once: its words fall more than a shortcut chunk (126 decays) behind
// while their heats decay through the subnormals.
struct LazyTwin {
  LazyTwin(const TieringConfig& config, const fault::FaultPlan& plan,
           const topology::PlatformOptions& on)
      : platform(topology::Platform::Build(on)),
        alloc(platform, kPageBytes),
        tiering(alloc, config),
        faults(plan),
        recorder(tiering.policy()) {
    TieredMemory::Observers observers;
    observers.faults = &faults;
    observers.policy = &recorder;
    tiering.Attach(observers);
  }
  topology::Platform platform;
  PageAllocator alloc;
  TieredMemory tiering;
  fault::FaultInjector faults;
  RecordingPolicy recorder;
};

::testing::AssertionResult SameTick(const TieredMemory::TickResult& a, const LazyTwin& ta,
                                    const TieredMemory::TickResult& b, const LazyTwin& tb) {
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  if (a.promoted_pages != b.promoted_pages || a.demoted_pages != b.demoted_pages ||
      bits(a.migrated_bytes) != bits(b.migrated_bytes) ||
      bits(a.hot_threshold) != bits(b.hot_threshold) || a.candidates != b.candidates) {
    return ::testing::AssertionFailure()
           << "results differ: promoted " << a.promoted_pages << "/" << b.promoted_pages
           << ", demoted " << a.demoted_pages << "/" << b.demoted_pages << ", candidates "
           << a.candidates << "/" << b.candidates << ", threshold " << a.hot_threshold << "/"
           << b.hot_threshold;
  }
  const RecordingPolicy& pa = ta.recorder;
  const RecordingPolicy& pb = tb.recorder;
  const TickDecision& da = pa.decision;
  const TickDecision& db = pb.decision;
  if (pa.decided != pb.decided || pa.observed != pb.observed || da.scan != db.scan ||
      bits(da.hot_threshold) != bits(db.hot_threshold) || da.budget_pages != db.budget_pages ||
      da.skip_tick != db.skip_tick) {
    return ::testing::AssertionFailure() << "decisions differ";
  }
  const TickObservation& oa = pa.observation;
  const TickObservation& ob = pb.observation;
  if (bits(oa.dt_seconds) != bits(ob.dt_seconds) || oa.candidates != ob.candidates ||
      oa.promoted_pages != ob.promoted_pages || oa.demoted_pages != ob.demoted_pages ||
      oa.budget_pages != ob.budget_pages || bits(oa.migrated_bytes) != bits(ob.migrated_bytes) ||
      bits(oa.rate_limit_saturation) != bits(ob.rate_limit_saturation) ||
      oa.promotion_failed != ob.promotion_failed ||
      bits(oa.dram_free_fraction) != bits(ob.dram_free_fraction) ||
      oa.recent_promoted != ob.recent_promoted ||
      oa.recent_promoted_hot != ob.recent_promoted_hot ||
      oa.ping_pong_demotions != ob.ping_pong_demotions ||
      oa.link_degraded != ob.link_degraded ||
      bits(oa.cxl_latency_factor) != bits(ob.cxl_latency_factor)) {
    return ::testing::AssertionFailure() << "observations differ";
  }
  const uint64_t n = ta.alloc.page_count();
  if (n != tb.alloc.page_count()) {
    return ::testing::AssertionFailure() << "page counts differ";
  }
  for (PageId id = 0; id < n; ++id) {
    if (!SameBits(ta.tiering.Heat(id), tb.tiering.Heat(id)) ||
        ta.alloc.NodeOf(id) != tb.alloc.NodeOf(id) ||
        ta.tiering.PromoteStamp(id) != tb.tiering.PromoteStamp(id)) {
      return ::testing::AssertionFailure()
             << "page " << id << ": heat " << ta.tiering.Heat(id) << "/" << tb.tiering.Heat(id)
             << ", node " << ta.alloc.NodeOf(id) << "/" << tb.alloc.NodeOf(id);
    }
  }
  return ::testing::AssertionSuccess();
}

class LazyDecayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LazyDecayTest, SettledAndUnsettledDaemonsAgreeBitForBit) {
  for (const uint64_t seed : {1, 2}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TieringConfig cfg;
    cfg.policy = GetParam();
    cfg.hint_fault_sample_rate = 0.25;
    cfg.promote_rate_limit_mbps = 4.0;  // ~976 pages per 1 s tick.
    fault::FaultPlan plan;
    plan.DaemonStall(60.0, 4.0).Downtrain(150.0, 12.0, 4).DaemonStall(380.0, 2.0);
    topology::PlatformOptions opt;
    opt.sockets = 1;
    opt.dram_per_socket = 16384 * kPageBytes;
    opt.cxl_cards = 1;
    opt.cxl_card_capacity = kCxlPages * kPageBytes;
    LazyTwin settled(cfg, plan, opt);
    LazyTwin lazy(cfg, plan, opt);
    std::vector<LazyTwin*> twins = {&settled, &lazy};
    const auto dram = settled.platform.DramNodes();
    const auto cxl = settled.platform.CxlNodes();
    uint64_t state = seed;
    const auto draw = [&](uint64_t bound) {
      state = SplitMix64(state);
      return state % bound;
    };
    std::vector<PageId> live;
    std::vector<PageId> filler;
    const auto allocate = [&](const NumaPolicy& policy, uint64_t count, std::vector<PageId>& into) {
      std::vector<PageId> got;
      for (LazyTwin* t : twins) {
        auto pages = t->alloc.Allocate(policy, count);
        ASSERT_TRUE(pages.ok());
        const std::vector<PageId> ids(pages->begin(), pages->end());
        if (t == &settled) {
          got = ids;
        } else {
          ASSERT_EQ(ids, got);
        }
      }
      into.insert(into.end(), got.begin(), got.end());
    };
    std::vector<PageId> all;
    allocate(NumaPolicy::Preferred(dram), 20480, all);
    ASSERT_EQ(all.front(), 0u);
    constexpr PageId kIdle = 4096;   // [kIdle, kCold): DRAM, never touched.
    constexpr PageId kCold = 10240;  // [kCold, kCold + 1024): one span, then left.
    for (LazyTwin* t : twins) {
      t->tiering.RecordAccessRun(kCold, 1024, 1);
    }
    for (const PageId id : all) {
      if (id < kIdle || id >= kCold + 1024) {
        live.push_back(id);
      }
    }
    bool drained = false;
    bool refilled = false;
    uint32_t ticks = 0;
    uint32_t max_lag = 0;  // The most decays a warm word of the lazy daemon fell behind.
    uint64_t demoted = 0;
    while (ticks < 400) {
      // Ticks 200-349 only tick, with nothing on CXL and DRAM above its
      // watermark: no pass reads a word, so every word falls behind and
      // heats decay through the subnormals to 0 unread. Then pages on CXL
      // start the passes again.
      const bool quiet = ticks >= 200 && ticks < 350;
      if (quiet && !drained) {
        drained = true;
        filler.clear();
        std::vector<PageId> kept;
        for (const PageId id : live) {
          if (settled.alloc.IsDramNode(settled.alloc.NodeOf(id)) && kept.size() < 6000) {
            kept.push_back(id);
          }
        }
        live = kept;
        std::vector<PageId> freed;
        std::sort(kept.begin(), kept.end());
        for (PageId id = 0; id < settled.alloc.page_count(); ++id) {
          const topology::NodeId nd = settled.alloc.NodeOf(id);
          const bool idle_or_cold = id >= kIdle && id < kCold + 1024;
          if (nd >= 0 && (idle_or_cold ? !settled.alloc.IsDramNode(nd)
                                       : !std::binary_search(kept.begin(), kept.end(), id))) {
            freed.push_back(id);
          }
        }
        for (LazyTwin* t : twins) {
          t->alloc.Free(PageRuns(freed.begin(), freed.end()));
        }
      } else if (!quiet && drained && !refilled) {
        refilled = true;
        allocate(NumaPolicy::Bind(cxl), 2000, live);
      }
      const uint64_t op = quiet ? 99 : draw(100);
      uint64_t free_pages = 0;
      for (const auto& nodes : {dram, cxl}) {
        for (const topology::NodeId nd : nodes) {
          free_pages += settled.alloc.FreePages(nd);
        }
      }
      if (op < 2 && live.size() < 14000) {
        const uint64_t count = std::min<uint64_t>(free_pages, 1 + draw(600));
        if (count > 0) {
          allocate(NumaPolicy::Preferred(dram), count, live);
        }
      } else if (op < 4 && live.size() > 4000) {
        std::vector<PageId> freed;
        const size_t count = 1 + draw(400);
        for (size_t i = 0; i < count; ++i) {
          const size_t at = draw(live.size());
          freed.push_back(live[at]);
          live[at] = live.back();
          live.pop_back();
        }
        for (LazyTwin* t : twins) {
          t->alloc.Free(PageRuns(freed.begin(), freed.end()));
        }
      } else if (op < 40) {
        for (int i = 0, draws = 1 + static_cast<int>(draw(200)); i < draws; ++i) {
          // Squared draws favour the low indices: a skewed hot set.
          const uint64_t r = draw(live.size());
          const PageId id = live[r * r / live.size()];
          const uint64_t accesses = 1 + draw(16);
          for (LazyTwin* t : twins) {
            t->tiering.RecordAccess(id, accesses);
          }
        }
      } else if (op < 55) {
        // A window of live ids as spans, the way Spark records its stream.
        const PageRuns runs(live.begin(), live.end());
        const uint64_t begin = draw(live.size());
        const uint64_t end = std::min<uint64_t>(live.size(), begin + 1 + draw(2500));
        const uint64_t accesses = draw(3) == 0 ? 0 : 1 + draw(400);
        runs.ForEachSpan(begin, end, [&](PageId first, uint64_t count) {
          for (LazyTwin* t : twins) {
            t->tiering.RecordAccessRun(first, count, accesses);
          }
        });
      } else if (op < 56) {
        const PageId id = live[draw(live.size())];
        for (LazyTwin* t : twins) {
          t->tiering.QuarantinePage(id);
        }
      } else if (op < 58) {
        if (filler.empty()) {
          for (const auto& nodes : {dram, cxl}) {
            for (const topology::NodeId nd : nodes) {
              allocate(NumaPolicy::Bind({nd}), settled.alloc.FreePages(nd), filler);
            }
          }
        } else {
          for (LazyTwin* t : twins) {
            t->alloc.Free(PageRuns(filler.begin(), filler.end()));
          }
          filler.clear();
        }
      } else {
        for (size_t w = 0; w < lazy.tiering.word_decays().size(); ++w) {
          if (lazy.tiering.warm_set()[w] != 0) {
            max_lag = std::max(max_lag, lazy.tiering.decays() - lazy.tiering.word_decays()[w]);
          }
        }
        std::vector<float> heat_before_tick(settled.alloc.page_count());
        for (PageId id = 0; id < heat_before_tick.size(); ++id) {
          heat_before_tick[id] = lazy.tiering.Heat(id);
        }
        ASSERT_EQ(std::memcmp(settled.alloc.heat_column(), heat_before_tick.data(),
                              heat_before_tick.size() * sizeof(float)),
                  0)
            << "tick " << ticks << ": the settled column is not the lazy daemon's heat";
        TieredMemory::TickResult results[2];
        for (size_t i = 0; i < twins.size(); ++i) {
          twins[i]->faults.AdvanceTo(static_cast<double>(ticks));
          twins[i]->recorder.decided = false;
          twins[i]->recorder.observed = false;
          results[i] = twins[i]->tiering.Tick(1.0);
        }
        ASSERT_TRUE(SameTick(results[0], settled, results[1], lazy)) << "tick " << ticks;
        const std::vector<std::string> audit = check::TieringInvariantViolations(lazy.tiering);
        ASSERT_TRUE(audit.empty()) << "tick " << ticks << ": " << audit.front();
        demoted += results[0].demoted_pages;
        ++ticks;
      }
      settled.tiering.SettleHeat();
    }
    // The lazy daemon's words fell behind by more than one chunk of the
    // shortcut, and demotions took pages from the cold pools.
    EXPECT_GT(max_lag, 126u);
    EXPECT_GT(demoted, 0u);
  }
}

std::string PolicyName(const ::testing::TestParamInfo<const char*>& param) {
  std::string name = param.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Policies, LazyDecayTest,
                         ::testing::Values("hot-page-selection", "mru-balancing", "tpp-like",
                                           "adaptive-feedback"),
                         PolicyName);

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
  while (h.Heat(pages[5]) != 0.0f) {
    ASSERT_TRUE(h.Tick(&r));
    EXPECT_EQ(r.pages_visited, 1u);  // The page's visit in the pass; the decay visits none.
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

// The hotness-ranked scan compares float heat against a double threshold,
// and the pass rounds the threshold up to a float once. That must select
// exactly what the double compare does, for a threshold strictly between
// two adjacent floats as well as on one, in a dense word (decided by masks)
// and in a sparse word (decided bit by bit).
TEST(WarmSetThresholdTest, RoundedThresholdSelectsWhatTheDoubleCompareDoes) {
  // Adjacent floats two apart: 16777217 lies strictly between them.
  constexpr float kLow = 16777216.0f;
  constexpr float kHigh = 16777218.0f;
  ASSERT_EQ(std::nextafter(kLow, kHigh), kHigh);
  for (const double threshold :
       {16777217.0, double{kLow}, double{kHigh}, std::nextafter(double{kLow}, 0.0),
        std::nextafter(double{kHigh}, 1e300)}) {
    TieringConfig cfg;
    cfg.hint_fault_sample_rate = 1.0;  // Heat is the access count, exactly.
    FixedPolicy policy(threshold, std::numeric_limits<uint64_t>::max());
    Harness h(cfg, fault::FaultPlan(), &policy);
    // Ids 0-127 on CXL with DRAM empty, so every candidate promotes. Word 0
    // holds 43 warm pages (dense), word 1 four (sparse).
    const std::vector<PageId> pages = h.Allocate(128, NumaPolicy::Bind(h.platform().CxlNodes()));
    std::vector<float> heat(pages.size(), 0.0f);
    for (size_t i = 0; i < 64; ++i) {
      heat[i] = i % 3 == 0 ? kLow : i % 3 == 1 ? kHigh : 0.0f;
    }
    heat[64 + 5] = kLow;
    heat[64 + 6] = kHigh;
    heat[64 + 40] = kHigh;
    heat[64 + 41] = kLow;
    for (size_t i = 0; i < pages.size(); ++i) {
      ASSERT_EQ(pages[i], i);
      if (heat[i] > 0.0f) {
        h.Access(pages[i], static_cast<uint64_t>(heat[i]));
      }
    }
    TieredMemory::TickResult r;
    ASSERT_TRUE(h.Tick(&r)) << "threshold " << threshold;
    uint64_t expected = 0;
    for (size_t i = 0; i < pages.size(); ++i) {
      const bool want = heat[i] > 0.0f && static_cast<double>(heat[i]) >= threshold;
      expected += want ? 1 : 0;
      EXPECT_EQ(h.alloc().IsDramNode(h.alloc().NodeOf(pages[i])), want)
          << "threshold " << threshold << ", page " << i << " at heat " << heat[i];
    }
    EXPECT_EQ(r.candidates, expected) << "threshold " << threshold;
    EXPECT_EQ(r.promoted_pages, expected) << "threshold " << threshold;
  }
}

// Decides like `inner` once `live` is set. Until then every tick scans
// against a NaN threshold, which no heat reaches, with no budget: the
// daemon only decays (and demotes at the watermark).
class HoldPolicy final : public TieringPolicy {
 public:
  explicit HoldPolicy(TieringPolicy& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  int32_t event_reason() const override { return inner_.event_reason(); }
  TickDecision Decide(const TickContext& ctx) override {
    if (live) {
      return inner_.Decide(ctx);
    }
    TickDecision d;
    d.hot_threshold = std::numeric_limits<double>::quiet_NaN();
    return d;
  }
  void Observe(const TickObservation& obs) override {
    if (live) {
      inner_.Observe(obs);
    }
  }
  double hot_threshold() const override { return inner_.hot_threshold(); }

  bool live = false;

 private:
  TieringPolicy& inner_;
};

// The dense pass decides a word's 64 pages with two vectorised compares,
// heat > cut (into the cold pool) and heat >= min_heat (a candidate). Here
// every word is dense and holds, by id % 8, heats +0, the smallest
// subnormal, FLT_MIN, 1, 2, FLT_MAX and two of +inf: sampled at 2^-149
// per access and grown by a heat "decay" of 2^63 per tick, the oldest
// accesses reach FLT_MAX and overflow to +inf on the fifth tick, where the
// policy starts deciding. Each policy's scan tests its own threshold (4,
// the smallest subnormal with recency, 2, and 0) against them. With 2048
// DRAM pages the cold pool holds them all and its cut stays +inf, and the
// promotions need more room than the finite DRAM heats leave, so +inf
// pages must reach the pool; with 40,960 the pool keeps at most 16,384
// (4096 under the 976-page budget) and its cut falls to finite heats. The
// harness checks the candidates and the demoted set every tick, and every
// candidate within the budget must promote.
TEST(WarmSetDenseMaskTest, ExtremeHeatsMatchTheScalarPredicates) {
  constexpr uint64_t kCxlAllocated = 8192;
  constexpr int kLiveTick = 4;
  struct Case {
    const char* policy;
    bool zero_threshold;
  };
  uint64_t infinite_demotions = 0;
  for (const Case& c : {Case{"hot-page-selection", false}, Case{"mru-balancing", false},
                        Case{"tpp-like", false}, Case{"hot-page-selection", true}}) {
    for (const bool small_dram : {true, false}) {
      SCOPED_TRACE(std::string(c.policy) + (c.zero_threshold ? "/zero-threshold" : "") +
                   (small_dram ? "/small DRAM" : "/large DRAM"));
      const uint64_t dram_pages = small_dram ? 2048 : 40960;
      topology::PlatformOptions opt;
      opt.sockets = 1;
      opt.dram_per_socket = dram_pages * kPageBytes;
      opt.cxl_cards = 1;
      opt.cxl_card_capacity = 4 * kCxlAllocated * kPageBytes;
      TieringConfig cfg;
      cfg.policy = c.policy;
      cfg.hint_fault_sample_rate = std::ldexp(1.0, -149);
      cfg.heat_decay = std::ldexp(1.0, 63);
      if (!small_dram) {
        cfg.promote_rate_limit_mbps = 4.0;  // ~976 pages per 1 s tick.
      }
      if (c.zero_threshold) {
        cfg.initial_hot_threshold = 0.0;
        cfg.dynamic_threshold = false;
      }
      auto inner = PolicyRegistry::BuiltIns().Create(cfg.PolicyName(), cfg);
      ASSERT_TRUE(inner.ok());
      HoldPolicy hold(**inner);
      Harness h(cfg, fault::FaultPlan(), &hold, topology::Platform::Build(opt));
      std::vector<PageId> pages =
          h.Allocate(dram_pages, NumaPolicy::Bind(h.platform().DramNodes()));
      const std::vector<PageId> cxl =
          h.Allocate(kCxlAllocated, NumaPolicy::Bind(h.platform().CxlNodes()));
      pages.insert(pages.end(), cxl.begin(), cxl.end());
      // Accesses of each kind of page (id % 8) and the tick before which
      // they land: heat a * 2^-149, times 2^63 per later tick.
      struct Touch {
        int tick;
        uint64_t kind;
        uint64_t accesses;
      };
      const Touch touches[] = {
          {0, 5, (uint64_t{1} << 25) - 2},  // (2^24 - 1) * 2^-148 -> FLT_MAX.
          {0, 6, uint64_t{1} << 25},        // 2^-124 -> 2^128: +inf.
          {0, 7, uint64_t{1} << 25},
          {2, 3, uint64_t{1} << 23},  // 2^-126 -> 1.
          {2, 4, uint64_t{1} << 24},  // 2.
          {4, 0, 0},                  // +0, warm.
          {4, 1, 1},                  // The smallest subnormal.
          {4, 2, uint64_t{1} << 23},  // FLT_MIN.
      };
      for (int t = 0; t < kLiveTick + 3; ++t) {
        for (const Touch& touch : touches) {
          if (touch.tick != t) {
            continue;
          }
          for (const PageId id : pages) {
            if (id % 8 == touch.kind) {
              h.Access(id, touch.accesses);
            }
          }
        }
        hold.live = t >= kLiveTick;
        const auto is_dram = [&](topology::NodeId nd) { return h.alloc().IsDramNode(nd); };
        const uint64_t n = h.alloc().page_count();
        const std::vector<float> heat = h.Heats();
        const std::vector<topology::NodeId> node(h.alloc().node_column(),
                                                 h.alloc().node_column() + n);
        if (t == kLiveTick) {
          for (const float want :
               {0.0f, std::numeric_limits<float>::denorm_min(), std::numeric_limits<float>::min(),
                std::numeric_limits<float>::max(), std::numeric_limits<float>::infinity()}) {
            for (const bool dram : {true, false}) {
              EXPECT_TRUE(std::any_of(pages.begin(), pages.end(), [&](PageId id) {
                return is_dram(node[id]) == dram &&
                       std::memcmp(&heat[id], &want, sizeof(float)) == 0;
              })) << "no " << (dram ? "DRAM" : "CXL") << " page at heat " << want;
            }
          }
        }
        TieredMemory::TickResult r;
        ASSERT_TRUE(h.Tick(&r)) << "tick " << t;
        if (t < kLiveTick) {
          continue;
        }
        EXPECT_EQ(r.promoted_pages, std::min(r.candidates, h.decision().budget_pages))
            << "tick " << t;
        if (t == kLiveTick) {
          EXPECT_GT(r.candidates, 0u);
          if (!small_dram) {
            EXPECT_GT(r.pool_shrinks, 0u);  // The cut fell below +inf.
          }
          for (const PageId id : pages) {
            infinite_demotions += is_dram(node[id]) && !is_dram(h.alloc().NodeOf(id)) &&
                                  heat[id] == std::numeric_limits<float>::infinity();
          }
        }
      }
    }
  }
  EXPECT_GT(infinite_demotions, 0u);
}

// Spark's heats take few distinct values, so the cold pool's cut usually
// falls inside a run of tied heats, and the dense pass tests later words
// against a cut they tie with. Here half the DRAM pages tie at the coldest
// heat, in dense 1000-page blocks, and the pool and the demotions take only
// part of them: the pages demoted must be exactly the lowest ids of the
// tie (the harness also checks (heat, id) order every tick).
TEST(WarmSetColdPoolTest, DemotesTheLowestIdsOfATieAtTheCut) {
  constexpr uint64_t kDram = 32768;
  topology::PlatformOptions opt;
  opt.sockets = 1;
  opt.dram_per_socket = kDram * kPageBytes;
  opt.cxl_cards = 1;
  opt.cxl_card_capacity = 16384 * kPageBytes;
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  FixedPolicy policy(/*threshold=*/100.0, /*budget_pages=*/3000);
  Harness h(cfg, fault::FaultPlan(), &policy, topology::Platform::Build(opt));
  const std::vector<PageId> dram = h.Allocate(kDram, NumaPolicy::Bind(h.platform().DramNodes()));
  ASSERT_EQ(h.alloc().DramFreeFraction(), 0.0);
  const std::vector<PageId> cxl = h.Allocate(4000, NumaPolicy::Bind(h.platform().CxlNodes()));
  for (const PageId id : dram) {
    h.Access(id, 1 + (id / 1000) % 2);
  }
  for (const PageId id : cxl) {
    h.Access(id, 200);
  }
  TieredMemory::TickResult r;
  ASSERT_TRUE(h.Tick(&r));
  ASSERT_EQ(r.promoted_pages, 3000u);
  ASSERT_GT(r.demoted_pages, 3000u);  // The promotions' demotions and the watermark's.
  uint64_t tied = 0;
  for (const PageId id : dram) {
    if ((id / 1000) % 2 != 0) {
      continue;  // Heat 2.
    }
    const bool demoted = !h.alloc().IsDramNode(h.alloc().NodeOf(id));
    EXPECT_EQ(demoted, tied < r.demoted_pages) << "page " << id;
    ++tied;
  }
  EXPECT_GE(tied, r.demoted_pages + 100);  // Tied pages the demotions left.
}

// The DRAM pages outside the daemon's warm set, each at heat 0: when they
// number at least the pool's size k, the pool is the k lowest-id zero-heat
// DRAM pages, filled by an id walk with no selector.
uint64_t DramOutsideWarmSet(Harness& h) {
  const std::vector<uint64_t>& warm = h.tiering().warm_set();
  const std::vector<uint64_t>& dram = h.alloc().dram_bits();
  uint64_t n = 0;
  for (size_t w = 0; w < dram.size(); ++w) {
    n += static_cast<uint64_t>(std::popcount(dram[w] & ~(w < warm.size() ? warm[w] : 0)));
  }
  return n;
}

// Every demotion must take the coldest DRAM page by (heat, id), which the
// harness checks every tick against the pre-tick columns: the pages a tick
// demotes are the smallest keys of the DRAM set. Here the cold pool is
// built both ways, and a tick takes the zero-heat walk (no offers) exactly
// when the DRAM pages outside the warm set cover the pool.
//  - At the boundary: 8,192 DRAM pages, the first 58 words warm and dense,
//    the other 70 sparse, tuned to k - 1, k and k + 1 pages outside the
//    warm set (k = 4096). A page of the first sparse word was quarantined
//    while CXL was full: it stays in DRAM at heat 0 with its warm bit
//    stale, so only a walk after the pass cleared that bit finds it.
//  - Across a refill: the first 4,800 DRAM pages were freed and handed
//    out again after a dense span, so they sit at heat 0 in dense words
//    with every warm bit stale; fewer than k pages lie outside the warm
//    set, so the tick's pool is selected and covers only 4,096 of them.
//    The threshold of 0 promotes zero-heat CXL pages, which join the pages
//    outside the warm set, so the refill after 3,750 demotions walks: its
//    first pages are the dense words' last 1,050, below the zero floor the
//    selected pool raised.
TEST(WarmSetColdPoolTest, ZeroHeatPoolIsTheKSmallestKeys) {
  constexpr uint64_t kPool = 4096;  // ColdPoolSize's floor.
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;  // Heat is the access count, exactly.
  for (const uint64_t seed : {1, 2, 3}) {
    for (const int64_t delta : {-1, 0, 1}) {
      SCOPED_TRACE("boundary, seed " + std::to_string(seed) + ", delta " + std::to_string(delta));
      FixedPolicy policy(/*threshold=*/10.0, /*budget_pages=*/976);
      Harness h(cfg, fault::FaultPlan(), &policy);
      const auto cxl = h.platform().CxlNodes();
      ASSERT_EQ(h.Allocate(kDramPages, NumaPolicy::Bind(h.platform().DramNodes())).front(), 0u);
      const std::vector<PageId> hot = h.Allocate(2048, NumaPolicy::Bind(cxl));
      for (const PageId id : hot) {
        h.Access(id, 50);
      }
      constexpr PageId kSparse = 58 * 64;
      h.AccessSpan(0, kSparse, 4);
      const PageId quarantined = kSparse + 10;
      h.Access(quarantined, 4);
      const std::vector<PageId> filler =
          h.Allocate(h.alloc().FreePages(cxl.front()), NumaPolicy::Bind(cxl));
      h.Quarantine(quarantined);
      ASSERT_TRUE(h.alloc().IsDramNode(h.alloc().NodeOf(quarantined)));
      h.Free(filler);
      // Warm random pages of the later sparse words until k + delta pages
      // lie outside the warm set.
      Rng rng(seed);
      const uint64_t target = kPool + static_cast<uint64_t>(delta);
      while (DramOutsideWarmSet(h) > target) {
        const PageId id = kSparse + 64 + rng.NextBounded(kDramPages - kSparse - 64);
        if (h.Heat(id) == 0.0f) {
          h.Access(id, 1 + rng.NextBounded(8));
        }
      }
      TieredMemory::TickResult r;
      ASSERT_TRUE(h.Tick(&r));
      if (delta >= 0) {
        EXPECT_EQ(r.pool_offers, 0u);
        EXPECT_EQ(r.pool_shrinks, 0u);
        EXPECT_EQ(r.sorted_entries, r.candidates);
      } else {
        EXPECT_GT(r.pool_offers, 0u);
        EXPECT_EQ(r.sorted_entries, kPool + r.candidates);
      }
      EXPECT_GT(r.demoted_pages, 100u);
      EXPECT_FALSE(h.alloc().IsDramNode(h.alloc().NodeOf(quarantined)));
    }
  }
  for (const uint64_t seed : {1, 2}) {
    SCOPED_TRACE("refill, seed " + std::to_string(seed));
    FixedPolicy policy(/*threshold=*/0.0, /*budget_pages=*/5000);  // Batches of 625.
    Harness h(cfg, fault::FaultPlan(), &policy);
    const auto dram = h.platform().DramNodes();
    constexpr PageId kStale = 75 * 64;
    ASSERT_EQ(h.Allocate(kDramPages, NumaPolicy::Bind(dram)).front(), 0u);
    ASSERT_EQ(h.Allocate(8192, NumaPolicy::Bind(h.platform().CxlNodes())).front(), kDramPages);
    h.AccessSpan(0, kStale, 4);
    std::vector<PageId> stale;
    for (PageId id = 0; id < kStale; ++id) {
      stale.push_back(id);
    }
    h.Free(stale);
    ASSERT_EQ(h.Allocate(kStale, NumaPolicy::Bind(dram)).size(), kStale);
    Rng rng(seed);
    for (PageId id = kStale; id < kDramPages; ++id) {
      if (rng.NextBounded(8) == 0) {
        h.Access(id, 1 + rng.NextBounded(8));
      }
    }
    ASSERT_LT(DramOutsideWarmSet(h), kPool);
    ASSERT_GT(DramOutsideWarmSet(h) + 3750, kPool);
    TieredMemory::TickResult r;
    ASSERT_TRUE(h.Tick(&r));
    EXPECT_EQ(r.promoted_pages, 5000u);
    EXPECT_GE(r.demoted_pages, 5000u);  // And a watermark batch.
    EXPECT_GT(r.pool_offers, 0u);
    EXPECT_EQ(r.sorted_entries, kPool + r.candidates);  // The refill walked.
    for (PageId id = 0; id < kStale; ++id) {
      ASSERT_FALSE(h.alloc().IsDramNode(h.alloc().NodeOf(id))) << "page " << id;
    }
    for (int t = 0; t < 3; ++t) {
      ASSERT_TRUE(h.Tick());
    }
  }
}

// The dense pass skips a word whose heat bounds put every page above the
// cold pool's cut and below the threshold. Each way heat changes here
// would leave a stale bound hiding a page the tick must select: a decay
// (refresh and straight sweep), a span's edge and interior words, a single
// access, an allocation's heat reset and a quarantine. DRAM holds three
// dense groups in id order, X (heat 12), Y (8) and W (16), so once the
// pool has taken X's first 8192 pages its cut is finite and the later,
// colder Y must still be scanned; CXL pages at 50 sit above every cut and
// below the threshold of 100 until accesses lift some of them over it.
// DRAM is full, so the watermark demotes the coldest pages every tick,
// and the harness checks them and the candidate count.
TEST(WarmSetBoundsTest, SkippedWordsHideNoSelectablePage) {
  constexpr uint64_t kDram = 32768;
  constexpr PageId kY = 16384;
  constexpr PageId kW = 24576;
  constexpr PageId kCxl = kDram;  // CXL pages follow DRAM's ids.
  topology::PlatformOptions opt;
  opt.sockets = 1;
  opt.dram_per_socket = kDram * kPageBytes;
  opt.cxl_cards = 1;
  opt.cxl_card_capacity = 16384 * kPageBytes;
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;  // Heat is the access count, exactly.
  FixedPolicy policy(/*threshold=*/100.0, /*budget_pages=*/200);
  Harness h(cfg, fault::FaultPlan(), &policy, topology::Platform::Build(opt));
  const auto cxl_nodes = h.platform().CxlNodes();
  ASSERT_EQ(h.Allocate(kDram, NumaPolicy::Bind(h.platform().DramNodes())).front(), 0u);
  ASSERT_EQ(h.Allocate(4096, NumaPolicy::Bind(cxl_nodes)).front(), kCxl);
  h.AccessSpan(0, kY, 12);
  h.AccessSpan(kY, kW - kY, 8);
  h.AccessSpan(kW, kDram - kW, 16);
  h.AccessSpan(kCxl, 4096, 50);
  TieredMemory::TickResult r;
  ASSERT_TRUE(h.Tick(&r));  // Epoch 0: the decay refreshes every dense word.
  ASSERT_TRUE(h.Tick(&r));  // Y at 4 lies below X's cut at 6.
  EXPECT_GT(r.dense_words_skipped, 0u);
  ASSERT_GT(r.demoted_pages, 0u);

  // A span from mid-word to mid-word (edge, interior, edge) and one page:
  // 12.5 + 90 and 12.5 + 95 reach the threshold.
  h.AccessSpan(kCxl + 64 * 10 + 32, 128, 90);
  h.Access(kCxl + 64 * 20 + 5, 95);
  ASSERT_TRUE(h.Tick(&r));
  EXPECT_EQ(r.candidates, 129u);
  EXPECT_GT(r.dense_words_skipped, 0u);

  // W's last word freed and handed out again: its pages are at heat 0.
  std::vector<PageId> z;
  for (PageId id = kDram - 64; id < kDram; ++id) {
    z.push_back(id);
  }
  h.Free(z);
  ASSERT_EQ(h.Allocate(64, NumaPolicy::Bind(h.platform().DramNodes())),
            std::vector<PageId>(z.rbegin(), z.rend()));
  ASSERT_TRUE(h.Tick(&r));  // Every lower bound is 0 now: nothing is skipped.
  EXPECT_FALSE(h.alloc().IsDramNode(h.alloc().NodeOf(z.front())));

  // With CXL full a quarantined W page stays in DRAM at heat 0, below the
  // zero-heat pages of z left in DRAM. The filler is allocated first, and
  // the refresh at epoch 8 restores the bounds its allocation zeroed.
  const std::vector<PageId> filler =
      h.Allocate(h.alloc().FreePages(cxl_nodes.front()), NumaPolicy::Bind(cxl_nodes));
  for (int epoch = 4; epoch <= 8; ++epoch) {
    ASSERT_TRUE(h.Tick(&r));
  }
  const PageId quarantined = kW + 64;
  h.Quarantine(quarantined);
  ASSERT_TRUE(h.alloc().IsDramNode(h.alloc().NodeOf(quarantined)));
  ASSERT_TRUE(h.alloc().IsDramNode(h.alloc().NodeOf(z.back())));
  h.Free(filler);
  ASSERT_TRUE(h.Tick(&r));
  EXPECT_GT(r.dense_words_skipped, 0u);
  EXPECT_FALSE(h.alloc().IsDramNode(h.alloc().NodeOf(quarantined)));
}

// bench_fig7's Spark shape (apps/spark/cluster.cc): 286,103 pages of 2 MiB
// in a 1:1 weighted interleave, DRAM sized to half of them, a 1/50 window
// advanced each 1 s tick at 400 accesses per page and recorded as id
// spans, hot page selection at 3000 MB/s. Once every page is warm every
// word is dense, and the pass offers the cold pool only the DRAM pages
// whose heat reaches the cut: at most a quarter of the DRAM pages (a
// per-page pass offers every one). At least 4/5 of the words are skipped
// whole on their heat bounds.
TEST(WarmSetWorkTest, DenseStreamingTickOffersFewDramPages) {
  constexpr double kRegionBytes = 600e9;
  topology::PlatformOptions opt;
  opt.cxl_cards = 2;
  opt.dram_per_socket = static_cast<uint64_t>(kRegionBytes / 4.0);
  const topology::Platform platform = topology::Platform::Build(opt);
  PageAllocator alloc(platform);
  TieringConfig cfg;
  cfg.promote_rate_limit_mbps = 3000.0;
  cfg.hint_fault_sample_rate = 0.05;
  TieredMemory tiering(alloc, cfg);
  auto region = MemoryRegion::Allocate(
      alloc, NumaPolicy::WeightedInterleave(platform.DramNodes(), platform.CxlNodes(), 1, 1),
      static_cast<uint64_t>(kRegionBytes));
  ASSERT_TRUE(region.ok());
  ASSERT_EQ(region->page_count(), 286'103u);
  const size_t pages = region->page_count();
  const size_t window = pages / 50;
  const auto record = [&](PageId first, uint64_t count) {
    tiering.RecordAccessRun(first, count, 400);
  };
  size_t cursor = 0;
  uint64_t demoted = 0;
  for (int tick = 0; tick < 70; ++tick) {
    const size_t end = cursor + window;
    region->ForEachSpan(cursor, std::min(end, pages), record);
    if (end > pages) {
      region->ForEachSpan(0, end - pages, record);
    }
    cursor = end % pages;
    const TieredMemory::TickResult r = tiering.Tick(1.0);
    if (tick < 60) {
      continue;  // Warming: the window has not yet touched every page.
    }
    ASSERT_GE(r.pages_visited, alloc.page_count()) << "tick " << tick;  // All dense.
    EXPECT_LE(4 * r.pool_offers, alloc.DramResidentCount()) << "tick " << tick;
    // A tick streams a 1/50 window, so most words hold nearly one heat:
    // their bounds keep them clear of the cut and the threshold, and the
    // pass skips them (4,112 of the 4,470 words per tick here).
    EXPECT_GE(5 * r.dense_words_skipped, 4 * (alloc.page_count() / 64)) << "tick " << tick;
    // One pool of k = 4096 (ColdPoolSize's floor; the 1,430-page budget
    // demotes in batches of 178): a shrink per k offers at most, and one
    // sort of the pool's k keys next to the ranked candidates.
    constexpr uint64_t kPool = 4096;
    EXPECT_LE(r.pool_shrinks * kPool, r.pool_offers) << "tick " << tick;
    EXPECT_LE(r.sorted_entries, kPool + r.candidates) << "tick " << tick;
    demoted += r.demoted_pages;
  }
  EXPECT_GT(demoted, 0u);
}

// kv-hotpromote's shape (hostbench and bench_fig5): 32 GiB of 1 KiB
// records on 16 KiB pages, Hot-Promote platform and tiering defaults,
// YCSB-A, one tick per 10,000 operations. The warm set stays a small
// fraction of the 2,097,152 page slots, and so does each tick's work.
// About a million DRAM pages lie outside it, far more than the cold pool
// holds, so every tick fills the pool by the zero-heat walk: no offers,
// no shrinks, and nothing sorted but the promotion candidates.
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
  uint64_t demoted = 0;
  for (int tick = 0; tick < 22; ++tick) {
    for (int op = 0; op < 10'000; ++op) {
      store->Access(gen.Next());
    }
    const TieredMemory::TickResult r = tiering.Tick(0.05);
    EXPECT_LE(r.pages_visited, alloc.page_count() / 10) << "tick " << tick;
    EXPECT_EQ(r.pool_offers, 0u) << "tick " << tick;
    EXPECT_EQ(r.pool_shrinks, 0u) << "tick " << tick;
    EXPECT_EQ(r.sorted_entries, r.candidates) << "tick " << tick;
    promoted += r.promoted_pages;
    demoted += r.demoted_pages;
  }
  EXPECT_GT(promoted, 0u);
  EXPECT_GT(demoted, 0u);  // The walked pools were used.
}

}  // namespace
}  // namespace cxl::os
