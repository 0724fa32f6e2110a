#include "src/util/knobs.h"

#include <gtest/gtest.h>

namespace cxl {
namespace {

TEST(KnobSetTest, DeclareAndGetDefault) {
  KnobSet knobs;
  knobs.Declare("vm.numa_tier_interleave_top", 1.0, "pages to top tier per cycle");
  EXPECT_TRUE(knobs.IsDeclared("vm.numa_tier_interleave_top"));
  EXPECT_EQ(knobs.Get("vm.numa_tier_interleave_top"), 1.0);
}

TEST(KnobSetTest, SetOverridesValue) {
  KnobSet knobs;
  knobs.Declare("kernel.numa_balancing_promote_rate_limit_MBps", 65536, "promote rate limit");
  EXPECT_TRUE(knobs.Set("kernel.numa_balancing_promote_rate_limit_MBps", 100.0).ok());
  EXPECT_EQ(knobs.Get("kernel.numa_balancing_promote_rate_limit_MBps"), 100.0);
}

TEST(KnobSetTest, SetUnknownKeyFails) {
  KnobSet knobs;
  const Status s = knobs.Set("vm.bogus", 1.0);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(KnobSetTest, ResetAllRestoresDefaults) {
  KnobSet knobs;
  knobs.Declare("a", 1.0, "");
  knobs.Declare("b", 2.0, "");
  ASSERT_TRUE(knobs.Set("a", 10.0).ok());
  ASSERT_TRUE(knobs.Set("b", 20.0).ok());
  knobs.ResetAll();
  EXPECT_EQ(knobs.Get("a"), 1.0);
  EXPECT_EQ(knobs.Get("b"), 2.0);
}

TEST(KnobSetTest, RedeclareOverwrites) {
  KnobSet knobs;
  knobs.Declare("a", 1.0, "first");
  knobs.Declare("a", 5.0, "second");
  EXPECT_EQ(knobs.Get("a"), 5.0);
  EXPECT_EQ(knobs.entries().at("a").description, "second");
}

TEST(KnobSetTest, StringKnobsDeclareSetGetReset) {
  KnobSet knobs;
  knobs.DeclareString("vm.tiering_policy", "hot-page-selection", "policy name");
  EXPECT_TRUE(knobs.IsDeclaredString("vm.tiering_policy"));
  EXPECT_FALSE(knobs.IsDeclared("vm.tiering_policy"));  // Separate namespace.
  EXPECT_EQ(knobs.GetString("vm.tiering_policy"), "hot-page-selection");
  ASSERT_TRUE(knobs.SetString("vm.tiering_policy", "adaptive-feedback").ok());
  EXPECT_EQ(knobs.GetString("vm.tiering_policy"), "adaptive-feedback");
  knobs.ResetAll();
  EXPECT_EQ(knobs.GetString("vm.tiering_policy"), "hot-page-selection");
}

TEST(KnobSetTest, SetUnknownStringKeyFails) {
  KnobSet knobs;
  const Status s = knobs.SetString("vm.bogus", "x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cxl
