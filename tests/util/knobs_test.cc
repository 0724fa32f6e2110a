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

TEST(KnobSetTest, RedeclareOverwrites) {
  KnobSet knobs;
  knobs.Declare("a", 1.0, "first");
  knobs.Declare("a", 5.0, "second");
  EXPECT_EQ(knobs.Get("a"), 5.0);
  EXPECT_EQ(knobs.entries().at("a").description, "second");
}

}  // namespace
}  // namespace cxl
