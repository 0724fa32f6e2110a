#include "src/mem/cxl_link.h"

#include <gtest/gtest.h>

#include "src/mem/profiles.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::mem {
namespace {

TEST(CxlLinkTest, AsicDerives73_6PercentEfficiency) {
  // §3.4: "the Asteralabs A1000 prototype reached an impressive 73.6%
  // bandwidth efficiency" — derived here from flit accounting, not asserted.
  const auto eff = ComputeLinkEfficiency(AsicLinkConfig());
  EXPECT_NEAR(eff.total, kAsicPcieEfficiency, 0.002);
  EXPECT_NEAR(eff.effective_gbps, kAsicPcieEfficiency * kPcieGen5x16GBps, 0.2);
}

TEST(CxlLinkTest, FpgaDerivesSixtyPercent) {
  const auto eff = ComputeLinkEfficiency(FpgaLinkConfig());
  EXPECT_NEAR(eff.total, kFpgaPcieEfficiency, 0.005);
}

TEST(CxlLinkTest, EfficiencyStackMultiplies) {
  const auto eff = ComputeLinkEfficiency(AsicLinkConfig());
  EXPECT_NEAR(eff.total, eff.flit_framing * eff.slot_overhead * eff.maintenance * eff.controller,
              1e-12);
}

TEST(CxlLinkTest, FlitFramingIs64Of68) {
  const auto eff = ComputeLinkEfficiency(CxlLinkConfig{});
  EXPECT_NEAR(eff.flit_framing, 64.0 / 68.0, 1e-12);
}

TEST(CxlLinkTest, DerivedEfficiencyMatchesCalibratedProfile) {
  // The link model and the calibrated PathProfile must agree on the
  // read-only CXL peak (both speak for the same hardware).
  const auto eff = ComputeLinkEfficiency(AsicLinkConfig());
  const double profile_peak =
      GetProfile(MemoryPath::kLocalCxl).PeakBandwidthGBps(AccessMix::ReadOnly());
  EXPECT_NEAR(eff.effective_gbps, profile_peak, 0.3);
}

TEST(CxlLinkTest, ControllerBubblesOnlyHurt) {
  CxlLinkConfig cfg = AsicLinkConfig();
  const double base = ComputeLinkEfficiency(cfg).total;
  cfg.controller_bubble_fraction = 0.10;
  EXPECT_LT(ComputeLinkEfficiency(cfg).total, base);
}

}  // namespace
}  // namespace cxl::mem
