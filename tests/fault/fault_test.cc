// Unit tests for the fault-injection engine: plan builders and the spec
// grammar, window aggregation in the injector, the §3.4-derived degraded
// link math, per-op sampling discipline, and the fault.* knob surface.
#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/mem/cxl_link.h"
#include "src/util/knobs.h"

namespace cxl::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultPlanTest, BuildersRecordEvents) {
  const FaultPlan plan = FaultPlan()
                             .Downtrain(1.0, 4.0, 8)
                             .CrcStorm(2.0, 2.0, 0.15)
                             .Poison(0.0, kInf, 1e-4)
                             .DramThrottle(0.5, 1.0, 0.25)
                             .DaemonStall(3.0, 1.5)
                             .FlashErrors(0.5, kInf, 0.01);
  ASSERT_EQ(plan.events().size(), 6u);
  EXPECT_EQ(plan.events()[0].type, FaultType::kLaneDowntrain);
  EXPECT_DOUBLE_EQ(plan.events()[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].end_s(), 5.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].severity, 8.0);
  EXPECT_TRUE(plan.events()[0].ActiveAt(1.0));
  EXPECT_TRUE(plan.events()[0].ActiveAt(4.999));
  EXPECT_FALSE(plan.events()[0].ActiveAt(5.0));
  EXPECT_FALSE(plan.events()[0].ActiveAt(0.999));
  EXPECT_EQ(plan.events()[2].type, FaultType::kPoisonedCacheline);
  EXPECT_EQ(plan.events()[2].end_s(), kInf);
}

TEST(FaultPlanTest, ParseReadsEveryFieldAndDefaultsTheOmittedOnes) {
  // The same plan as Downtrain(2, 3, 8).Poison(0, kInf, 1e-4): an omitted
  // start is 0 and an omitted duration is open-ended.
  const auto plan = FaultPlan::Parse("downtrain@2+3=8,poison=0.0001");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events().size(), 2u);
  const FaultEvent& downtrain = plan->events()[0];
  EXPECT_EQ(downtrain.type, FaultType::kLaneDowntrain);
  EXPECT_EQ(downtrain.start_s, 2.0);
  EXPECT_EQ(downtrain.duration_s, 3.0);
  EXPECT_EQ(downtrain.severity, 8.0);
  const FaultEvent& poison = plan->events()[1];
  EXPECT_EQ(poison.type, FaultType::kPoisonedCacheline);
  EXPECT_EQ(poison.start_s, 0.0);
  EXPECT_EQ(poison.duration_s, kInf);
  EXPECT_EQ(poison.severity, 1e-4);
}

TEST(FaultPlanTest, ParseSpecGrammar) {
  const auto plan = FaultPlan::Parse("downtrain@2+3=8,poison=1e-4");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events().size(), 2u);
  EXPECT_EQ(plan->events()[0].type, FaultType::kLaneDowntrain);
  EXPECT_DOUBLE_EQ(plan->events()[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(plan->events()[0].duration_s, 3.0);
  EXPECT_DOUBLE_EQ(plan->events()[0].severity, 8.0);
  EXPECT_EQ(plan->events()[1].type, FaultType::kPoisonedCacheline);
  EXPECT_DOUBLE_EQ(plan->events()[1].start_s, 0.0);
  EXPECT_DOUBLE_EQ(plan->events()[1].severity, 1e-4);

  // Omitted severity falls back to the per-type default (x8 for downtrain).
  const auto bare = FaultPlan::Parse("downtrain");
  ASSERT_TRUE(bare.ok());
  EXPECT_DOUBLE_EQ(bare->events()[0].severity, 8.0);

  // Empty spec is the empty (healthy) plan.
  const auto empty = FaultPlan::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultPlanTest, ParseStormKeyword) {
  const auto storm = FaultPlan::Parse("storm");
  ASSERT_TRUE(storm.ok());
  const FaultPlan canonical = FaultPlan::Storm();
  ASSERT_EQ(storm->events().size(), canonical.events().size());
  for (size_t i = 0; i < canonical.events().size(); ++i) {
    EXPECT_EQ(storm->events()[i].type, canonical.events()[i].type);
    EXPECT_DOUBLE_EQ(storm->events()[i].severity, canonical.events()[i].severity);
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("bogus").ok());
  EXPECT_FALSE(FaultPlan::Parse("downtrain=0").ok());    // Lanes in {1..16}.
  EXPECT_FALSE(FaultPlan::Parse("downtrain=17").ok());
  EXPECT_FALSE(FaultPlan::Parse("poison=2").ok());       // Probability <= 1.
  EXPECT_FALSE(FaultPlan::Parse("crc=0.95").ok());       // Maintenance <= 0.9.
  EXPECT_FALSE(FaultPlan::Parse("poison=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("downtrain@,poison").ok());
  EXPECT_FALSE(FaultPlan::Parse(",").ok());
}

// NaN passes no range check and an infinite window never closes: a spec
// number is finite, and the error names the field and the text.
TEST(FaultPlanTest, ParseRejectsNonFiniteNumbers) {
  const std::pair<const char*, const char*> cases[] = {
      {"poison=nan", "bad severity 'nan'"},
      {"downtrain@nan", "bad start 'nan'"},
      {"poison+inf", "bad duration 'inf'"},
      {"crc@1+2=infinity", "bad severity 'infinity'"},
      {"downtrain@-inf", "bad start '-inf'"},
  };
  for (const auto& [spec, message] : cases) {
    const auto plan = FaultPlan::Parse(spec);
    ASSERT_FALSE(plan.ok()) << spec;
    EXPECT_NE(plan.status().message().find(message), std::string::npos)
        << spec << ": " << plan.status().message();
  }
}

TEST(FaultInjectorTest, AggregatesOverlappingWindows) {
  const FaultPlan plan = FaultPlan()
                             .Downtrain(1.0, 10.0, 8)
                             .Downtrain(2.0, 2.0, 4)
                             .CrcStorm(1.0, 2.0, 0.1)
                             .CrcStorm(1.5, 2.0, 0.2)
                             .DramThrottle(1.0, 1.0, 0.5)
                             .DramThrottle(1.5, 1.0, 0.25);
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.enabled());

  // Before any window: healthy, exactly.
  injector.AdvanceTo(0.5);
  EXPECT_EQ(injector.active_lanes(), 16);
  EXPECT_DOUBLE_EQ(injector.CxlBandwidthFactor(), 1.0);
  EXPECT_DOUBLE_EQ(injector.DramBandwidthFactor(), 1.0);
  EXPECT_FALSE(injector.AnyActive());

  // t=2.2: both down-trains active -> min lanes; both CRC storms -> summed
  // maintenance; the deeper throttle window -> min retained bandwidth.
  injector.AdvanceTo(2.2);
  EXPECT_EQ(injector.active_lanes(), 4);
  EXPECT_LT(injector.CxlBandwidthFactor(), 0.3);
  EXPECT_DOUBLE_EQ(injector.DramBandwidthFactor(), 0.25);
  EXPECT_TRUE(injector.AnyActive());

  // t=5: only the x8 down-train remains.
  injector.AdvanceTo(5.0);
  EXPECT_EQ(injector.active_lanes(), 8);
  EXPECT_DOUBLE_EQ(injector.DramBandwidthFactor(), 1.0);

  // Past everything: healthy again, exactly.
  injector.AdvanceTo(100.0);
  EXPECT_EQ(injector.active_lanes(), 16);
  EXPECT_DOUBLE_EQ(injector.CxlBandwidthFactor(), 1.0);
  EXPECT_DOUBLE_EQ(injector.CxlLatencyFactor(), 1.0);
  EXPECT_FALSE(injector.AnyActive());
}

TEST(FaultInjectorTest, DegradedLinkFollowsFlitAccounting) {
  const mem::CxlLinkConfig base = mem::AsicLinkConfig();
  EXPECT_DOUBLE_EQ(DegradedLinkBandwidthFactor(base, 16, 0.0), 1.0);
  const double x8 = DegradedLinkBandwidthFactor(base, 8, 0.0);
  const double x4 = DegradedLinkBandwidthFactor(base, 4, 0.0);
  EXPECT_LT(x8, 1.0);
  EXPECT_LT(x4, x8);
  EXPECT_NEAR(x8, 0.5, 0.05);  // Lane ratio dominates; maintenance shifts it.
  // Extra maintenance alone also costs bandwidth.
  EXPECT_LT(DegradedLinkBandwidthFactor(base, 16, 0.2), 1.0);

  FaultInjector injector(FaultPlan().Downtrain(0.0, kInf, 8));
  injector.AdvanceTo(0.0);
  EXPECT_DOUBLE_EQ(injector.CxlBandwidthFactor(), x8);
  EXPECT_DOUBLE_EQ(injector.CxlLatencyFactor(), 1.0 / x8);
}

TEST(FaultInjectorTest, SamplesOnlyWhileActive) {
  // Disabled injector: never samples true.
  FaultInjector off(FaultPlan{});
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.SamplePoisonedRead());
  EXPECT_FALSE(off.SampleFlashError());
  EXPECT_FALSE(off.SampleShuffleFailure(1.0));

  // Certain poison, but only inside its window.
  FaultInjector poison(FaultPlan().Poison(1.0, 1.0, 1.0));
  poison.AdvanceTo(0.5);
  EXPECT_FALSE(poison.SamplePoisonedRead());
  poison.AdvanceTo(1.5);
  EXPECT_TRUE(poison.SamplePoisonedRead());
  poison.AdvanceTo(2.5);
  EXPECT_FALSE(poison.SamplePoisonedRead());

  // Shuffle failures only draw while the link is degraded.
  FaultInjector healthy_link(FaultPlan().Poison(0.0, kInf, 1.0));
  healthy_link.AdvanceTo(0.0);
  EXPECT_FALSE(healthy_link.SampleShuffleFailure(1.0));
  FaultInjector degraded(FaultPlan().Downtrain(0.0, kInf, 8));
  degraded.AdvanceTo(0.0);
  EXPECT_TRUE(degraded.SampleShuffleFailure(1.0));
}

TEST(FaultInjectorTest, SameSeedSameDrawSequence) {
  const FaultPlan plan = FaultPlan().Poison(0.0, kInf, 0.5);
  FaultInjector a(plan, /*seed=*/7);
  FaultInjector b(plan, /*seed=*/7);
  a.AdvanceTo(0.0);
  b.AdvanceTo(0.0);
  std::vector<bool> draws_a, draws_b;
  for (int i = 0; i < 256; ++i) {
    draws_a.push_back(a.SamplePoisonedRead());
    draws_b.push_back(b.SamplePoisonedRead());
  }
  EXPECT_EQ(draws_a, draws_b);

  FaultInjector c(plan, /*seed=*/8);
  c.AdvanceTo(0.0);
  std::vector<bool> draws_c;
  for (int i = 0; i < 256; ++i) {
    draws_c.push_back(c.SamplePoisonedRead());
  }
  EXPECT_NE(draws_a, draws_c);
}

TEST(FaultKnobsTest, DeclareSetAndReadBack) {
  KnobSet knobs;
  DeclareFaultKnobs(knobs);
  EXPECT_TRUE(knobs.IsDeclared("fault.poison_read_retries"));
  EXPECT_TRUE(knobs.IsDeclared("fault.shed_latency_factor"));
  EXPECT_TRUE(knobs.IsDeclared("fault.backoff_max_ticks"));
  EXPECT_TRUE(knobs.IsDeclared("fault.llm_batch_shrink_threshold"));

  // Defaults read back as the FaultTunables defaults.
  const FaultTunables defaults = FaultTunablesFromKnobs(knobs);
  EXPECT_EQ(defaults.poison_read_retries, FaultTunables{}.poison_read_retries);
  EXPECT_DOUBLE_EQ(defaults.shed_latency_factor, FaultTunables{}.shed_latency_factor);

  ASSERT_TRUE(knobs.Set("fault.poison_read_retries", 5).ok());
  ASSERT_TRUE(knobs.Set("fault.spark_fetch_failure_probability", 0.25).ok());
  const FaultTunables tuned = FaultTunablesFromKnobs(knobs);
  EXPECT_EQ(tuned.poison_read_retries, 5);
  EXPECT_DOUBLE_EQ(tuned.spark_fetch_failure_probability, 0.25);
}

}  // namespace
}  // namespace cxl::fault
