// Calibration tests: every number here is a measurement quoted in §3 of the
// paper. If these pass, the microbenchmark substrate reproduces the paper's
// Fig. 3 / Fig. 4 anchor points.
#include "src/mem/profiles.h"

#include <gtest/gtest.h>

#include "src/mem/access.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::mem {
namespace {

const AccessMix kRead = AccessMix::ReadOnly();
const AccessMix kWrite = AccessMix::WriteOnly();
const AccessMix kTwoToOne = AccessMix::Ratio(2, 1);

TEST(PiecewiseLinearTest, InterpolatesAndClamps) {
  PiecewiseLinear f({{0.0, 10.0}, {1.0, 20.0}});
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.5), 15.0);
  EXPECT_DOUBLE_EQ(f.Eval(1.0), 20.0);
  EXPECT_DOUBLE_EQ(f.Eval(-1.0), 10.0);
  EXPECT_DOUBLE_EQ(f.Eval(2.0), 20.0);
}

TEST(PiecewiseLinearTest, MultiSegment) {
  PiecewiseLinear f({{0.0, 0.0}, {0.5, 10.0}, {1.0, 0.0}});
  EXPECT_DOUBLE_EQ(f.Eval(0.25), 5.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.75), 5.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.5), 10.0);
}

TEST(PiecewiseLinearTest, ScaledY) {
  PiecewiseLinear f({{0.0, 10.0}, {1.0, 20.0}});
  const PiecewiseLinear g = f.ScaledY(2.0);
  EXPECT_DOUBLE_EQ(g.Eval(0.5), 30.0);
}

// --- Local DRAM (MMEM), Fig. 3(a) ------------------------------------------

TEST(LocalDramTest, IdleReadLatencyIs97ns) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  EXPECT_NEAR(p.IdleLatencyNs(kRead), 97.0, 0.5);
}

TEST(LocalDramTest, ReadPeak67GBps) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  EXPECT_NEAR(p.PeakBandwidthGBps(kRead), 67.0, 0.5);
  // 87% of the 76.8 GB/s theoretical maximum of the 2-channel domain.
  EXPECT_NEAR(p.PeakBandwidthGBps(kRead) / kSncDomainPeakGBps, 0.87, 0.01);
}

TEST(LocalDramTest, WriteOnlyPeak54_6GBps) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  EXPECT_NEAR(p.PeakBandwidthGBps(kWrite), 54.6, 0.5);
}

TEST(LocalDramTest, BandwidthDipsAsWritesIncrease) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  double prev = 1e9;
  for (double rf : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    const double peak = p.PeakBandwidthGBps(AccessMix{rf, true});
    EXPECT_LT(peak, prev);
    prev = peak;
  }
}

TEST(LocalDramTest, KneeAt75To83Percent) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalDram);
  const double knee = p.MakeQueueModel(kRead).KneeUtilization(1.5);
  EXPECT_GE(knee, 0.75);
  EXPECT_LE(knee, 0.86);
}

// --- Remote DRAM (MMEM-r), Fig. 3(b) ----------------------------------------

TEST(RemoteDramTest, IdleReadLatencyIs130ns) {
  const PathProfile& p = GetProfile(MemoryPath::kRemoteDram);
  EXPECT_NEAR(p.IdleLatencyNs(kRead), 130.0, 0.5);
}

TEST(RemoteDramTest, NonTemporalWriteIdleIs71_77ns) {
  // "latency begins at approximately 130 ns, contrasting sharply with just
  // 71.77 ns for write-only operations" (§3.2).
  const PathProfile& p = GetProfile(MemoryPath::kRemoteDram);
  EXPECT_NEAR(p.IdleLatencyNs(kWrite), 71.77, 0.5);
  EXPECT_LT(p.IdleLatencyNs(kWrite), GetProfile(MemoryPath::kLocalDram).IdleLatencyNs(kRead));
}

TEST(RemoteDramTest, ReadPeakComparableToLocal) {
  const PathProfile& p = GetProfile(MemoryPath::kRemoteDram);
  EXPECT_GT(p.PeakBandwidthGBps(kRead), 60.0);
}

TEST(RemoteDramTest, WriteOnlyHasLowestBandwidth) {
  // Write-only uses only one UPI direction (§3.2).
  const PathProfile& p = GetProfile(MemoryPath::kRemoteDram);
  const double wpeak = p.PeakBandwidthGBps(kWrite);
  for (double rf : {0.25, 0.5, 2.0 / 3.0, 0.75, 1.0}) {
    EXPECT_LT(wpeak, p.PeakBandwidthGBps(AccessMix{rf, true}));
  }
}

TEST(RemoteDramTest, KneeEarlierThanLocal) {
  const double local = GetProfile(MemoryPath::kLocalDram).MakeQueueModel(kRead).KneeUtilization();
  const double remote = GetProfile(MemoryPath::kRemoteDram).MakeQueueModel(kRead).KneeUtilization();
  EXPECT_LT(remote, local);
}

TEST(RemoteDramTest, BandwidthDroopsUnderWriteOverload) {
  // Fig. 3(b) 0:1 curve: "bandwidth decreases and latency increases with
  // heavier loads".
  const PathProfile& p = GetProfile(MemoryPath::kRemoteDram);
  const double peak = p.PeakBandwidthGBps(kWrite);
  const double overloaded = p.AchievedBandwidthGBps(kWrite, peak * 1.8);
  EXPECT_LT(overloaded, peak);
}

// --- Local CXL (ASIC), Fig. 3(c) --------------------------------------------

TEST(LocalCxlTest, IdleLatencyIs250ns) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalCxl);
  EXPECT_NEAR(p.IdleLatencyNs(kRead), 250.42, 0.5);
}

TEST(LocalCxlTest, PeakIs56_7At2To1) {
  const PathProfile& p = GetProfile(MemoryPath::kLocalCxl);
  EXPECT_NEAR(p.PeakBandwidthGBps(kTwoToOne), 56.7, 0.3);
}

TEST(LocalCxlTest, TwoToOneIsGlobalMaximum) {
  // "maximum bandwidth of around 56.7 GB/s, achieved when the workload is
  // 2:1 read-write ratio" (§3.2).
  const PathProfile& p = GetProfile(MemoryPath::kLocalCxl);
  const double best = p.PeakBandwidthGBps(kTwoToOne);
  for (double rf : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_GT(best, p.PeakBandwidthGBps(AccessMix{rf, true}));
  }
}

TEST(LocalCxlTest, ReadOnlyLimitedByPcieBidirectionality) {
  // Read-only cannot exploit both PCIe directions: 73.6% of 64 GB/s.
  const PathProfile& p = GetProfile(MemoryPath::kLocalCxl);
  EXPECT_NEAR(p.PeakBandwidthGBps(kRead), kAsicPcieEfficiency * kPcieGen5x16GBps, 0.5);
  EXPECT_LT(p.PeakBandwidthGBps(kRead), p.PeakBandwidthGBps(kTwoToOne));
}

TEST(LocalCxlTest, LatencyRatioVsLocalDram) {
  // §3.3: CXL latency is 2.4x-2.6x that of local DDR.
  const double ratio = GetProfile(MemoryPath::kLocalCxl).IdleLatencyNs(kRead) /
                       GetProfile(MemoryPath::kLocalDram).IdleLatencyNs(kRead);
  EXPECT_GE(ratio, 2.4);
  EXPECT_LE(ratio, 2.6);
}

TEST(LocalCxlTest, LatencyRatioVsRemoteDram) {
  // §3.3: CXL latency is 1.5x-1.92x that of remote-socket DDR.
  const double ratio = GetProfile(MemoryPath::kLocalCxl).IdleLatencyNs(kRead) /
                       GetProfile(MemoryPath::kRemoteDram).IdleLatencyNs(kRead);
  EXPECT_GE(ratio, 1.5);
  EXPECT_LE(ratio, 1.95);
}

TEST(LocalCxlTest, LatencyRelativelyStableUnderLoad) {
  // Fig. 3(c): the CXL latency curve stays comparatively flat with load.
  const PathProfile& p = GetProfile(MemoryPath::kLocalCxl);
  const double idle = p.IdleLatencyNs(kTwoToOne);
  const double at80 = p.MakeQueueModel(kTwoToOne).LatencyAt(0.8);
  EXPECT_LT(at80 / idle, 1.25);
}

// --- Remote CXL, Fig. 3(d) --------------------------------------------------

TEST(RemoteCxlTest, IdleLatencyIs485ns) {
  const PathProfile& p = GetProfile(MemoryPath::kRemoteCxl);
  EXPECT_NEAR(p.IdleLatencyNs(kRead), 485.0, 1.0);
}

TEST(RemoteCxlTest, RsfCapsBandwidthAt20_4) {
  const PathProfile& p = GetProfile(MemoryPath::kRemoteCxl);
  EXPECT_NEAR(p.PeakBandwidthGBps(kTwoToOne), 20.4, 0.3);
}

TEST(RemoteCxlTest, MuchWorseThanRemoteDramPenalty) {
  // Remote CXL loses ~64% of bandwidth vs local CXL — "a much more severe
  // performance drop compared to accessing MMEM from the remote NUMA node".
  const double cxl_drop = GetProfile(MemoryPath::kRemoteCxl).PeakBandwidthGBps(kTwoToOne) /
                          GetProfile(MemoryPath::kLocalCxl).PeakBandwidthGBps(kTwoToOne);
  const double dram_drop = GetProfile(MemoryPath::kRemoteDram).PeakBandwidthGBps(kTwoToOne) /
                           GetProfile(MemoryPath::kLocalDram).PeakBandwidthGBps(kTwoToOne);
  EXPECT_LT(cxl_drop, dram_drop);
  EXPECT_LT(cxl_drop, 0.45);
}

// --- FPGA controller, §3.4 ---------------------------------------------------

TEST(FpgaTest, OnlySixtyPercentPcieEfficiency) {
  const PathProfile& fpga = GetProfile(MemoryPath::kLocalCxl, CxlController::kFpga);
  EXPECT_NEAR(fpga.PeakBandwidthGBps(kRead), kFpgaPcieEfficiency * kPcieGen5x16GBps, 0.5);
}

TEST(FpgaTest, AsicOutperformsFpgaEverywhere) {
  const PathProfile& asic = GetProfile(MemoryPath::kLocalCxl, CxlController::kAsic);
  const PathProfile& fpga = GetProfile(MemoryPath::kLocalCxl, CxlController::kFpga);
  for (double rf : {0.0, 0.25, 0.5, 2.0 / 3.0, 1.0}) {
    const AccessMix mix{rf, true};
    EXPECT_GT(asic.PeakBandwidthGBps(mix), fpga.PeakBandwidthGBps(mix));
    EXPECT_LT(asic.IdleLatencyNs(mix), fpga.IdleLatencyNs(mix));
  }
}

// --- SSD ---------------------------------------------------------------------

TEST(SsdTest, LatencyOrdersOfMagnitudeAboveDram) {
  const PathProfile& ssd = GetProfile(MemoryPath::kSsd);
  EXPECT_GT(ssd.IdleLatencyNs(kRead), 100.0 * GetProfile(MemoryPath::kLocalDram).IdleLatencyNs(kRead));
  EXPECT_LT(ssd.PeakBandwidthGBps(kRead), 5.0);
}

// --- Generic profile properties (parameterized) ------------------------------

class AllPathsTest : public ::testing::TestWithParam<MemoryPath> {};

TEST_P(AllPathsTest, LoadedLatencyMonotoneInOfferedLoad) {
  const PathProfile& p = GetProfile(GetParam());
  for (double rf : {0.0, 0.5, 1.0}) {
    const AccessMix mix{rf, true};
    double prev = 0.0;
    const double peak = p.PeakBandwidthGBps(mix);
    for (double frac = 0.0; frac <= 1.2; frac += 0.05) {
      const double lat = p.LoadedLatencyNs(mix, frac * peak);
      EXPECT_GE(lat, prev - 1e-9);
      prev = lat;
    }
  }
}

TEST_P(AllPathsTest, AchievedNeverExceedsOfferedOrPeak) {
  const PathProfile& p = GetProfile(GetParam());
  for (double rf : {0.0, 0.5, 1.0}) {
    const AccessMix mix{rf, true};
    const double peak = p.PeakBandwidthGBps(mix);
    for (double offered : {0.1 * peak, peak, 2.0 * peak}) {
      const double achieved = p.AchievedBandwidthGBps(mix, offered);
      EXPECT_LE(achieved, offered + 1e-9);
      EXPECT_LE(achieved, peak + 1e-9);
      EXPECT_GT(achieved, 0.0);
    }
  }
}

TEST_P(AllPathsTest, RandomPatternWithinAFewPercent) {
  // §3.3: "we do not observe any significant performance disparities" for
  // random vs sequential on DRAM/CXL (SSD excluded: flash does care).
  if (GetParam() == MemoryPath::kSsd) {
    GTEST_SKIP() << "flash random I/O legitimately differs";
  }
  const PathProfile& p = GetProfile(GetParam());
  const double seq = p.PeakBandwidthGBps(kRead, AccessPattern::kSequential);
  const double rnd = p.PeakBandwidthGBps(kRead, AccessPattern::kRandom);
  EXPECT_GT(rnd / seq, 0.95);
  EXPECT_LE(rnd / seq, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Paths, AllPathsTest,
                         ::testing::Values(MemoryPath::kLocalDram, MemoryPath::kRemoteDram,
                                           MemoryPath::kLocalCxl, MemoryPath::kRemoteCxl,
                                           MemoryPath::kSsd));

TEST(ScalingTest, WithBandwidthScaleScalesPeaksOnly) {
  const PathProfile& base = GetProfile(MemoryPath::kLocalDram);
  const PathProfile socket = base.WithBandwidthScale(4.0, "MMEM-socket");
  EXPECT_NEAR(socket.PeakBandwidthGBps(kRead), 4.0 * base.PeakBandwidthGBps(kRead), 1e-9);
  EXPECT_DOUBLE_EQ(socket.IdleLatencyNs(kRead), base.IdleLatencyNs(kRead));
}

}  // namespace
}  // namespace cxl::mem
