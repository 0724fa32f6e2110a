// Integration: the Fig. 3 / Fig. 4 microbenchmark shapes, end-to-end through
// the MLC harness (not just the profile tables).
#include <gtest/gtest.h>

#include "src/mem/access.h"
#include "src/mem/profiles.h"
#include "src/workload/mlc.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl {
namespace {

using mem::AccessMix;
using mem::GetProfile;
using mem::MemoryPath;
using workload::MlcBenchmark;

TEST(Fig3ShapeTest, LatencyOrderingAcrossDistances) {
  // At every load level: MMEM < MMEM-r < CXL < CXL-r (read-only).
  const AccessMix mix = AccessMix::ReadOnly();
  for (double frac : {0.1, 0.4, 0.7}) {
    double prev = 0.0;
    for (MemoryPath path : {MemoryPath::kLocalDram, MemoryPath::kRemoteDram,
                            MemoryPath::kLocalCxl, MemoryPath::kRemoteCxl}) {
      const auto& prof = GetProfile(path);
      const double lat = prof.LoadedLatencyNs(mix, frac * prof.PeakBandwidthGBps(mix));
      EXPECT_GT(lat, prev) << "path " << static_cast<int>(path) << " frac " << frac;
      prev = lat;
    }
  }
}

TEST(Fig3ShapeTest, BandwidthOrderingAcrossDistances) {
  const AccessMix mix = AccessMix::Ratio(2, 1);
  const double mmem = GetProfile(MemoryPath::kLocalDram).PeakBandwidthGBps(mix);
  const double cxl = GetProfile(MemoryPath::kLocalCxl).PeakBandwidthGBps(mix);
  const double cxl_r = GetProfile(MemoryPath::kRemoteCxl).PeakBandwidthGBps(mix);
  EXPECT_GT(mmem, cxl);
  EXPECT_GT(cxl, 2.0 * cxl_r);  // Remote CXL bandwidth is "unexpectedly halved"+.
}

TEST(Fig3ShapeTest, MlcSweepLatencySpikesOnlyNearSaturation) {
  // Latency at 60% of peak within 1.35x idle; at saturation well beyond it.
  for (MemoryPath path : {MemoryPath::kLocalDram, MemoryPath::kLocalCxl}) {
    MlcBenchmark mlc(GetProfile(path));
    const AccessMix mix = AccessMix::ReadOnly();
    const double idle = mlc.IdleLatencyNs(mix);
    const double peak = mlc.PeakBandwidthGBps(mix);
    EXPECT_LT(GetProfile(path).LoadedLatencyNs(mix, 0.6 * peak), 1.35 * idle);
    EXPECT_GT(mlc.ClosedLoopPoint(mix).latency_ns, 1.6 * idle);
  }
}

TEST(Fig3ShapeTest, WriteShareShiftsKneeLeft) {
  for (MemoryPath path : {MemoryPath::kLocalDram, MemoryPath::kRemoteDram,
                          MemoryPath::kLocalCxl}) {
    const auto& prof = GetProfile(path);
    const double knee_read = prof.MakeQueueModel(AccessMix::ReadOnly()).KneeUtilization();
    const double knee_half = prof.MakeQueueModel(AccessMix::Ratio(1, 1)).KneeUtilization();
    const double knee_write = prof.MakeQueueModel(AccessMix::WriteOnly()).KneeUtilization();
    EXPECT_GT(knee_read, knee_half) << static_cast<int>(path);
    EXPECT_GT(knee_half, knee_write) << static_cast<int>(path);
  }
}

TEST(Fig4ShapeTest, CxlComparableToRemoteNumaAccess) {
  // §3.3: "accessing CXL locally is comparable to accessing remote NUMA node
  // memory" — within 2x on latency, same order of magnitude of bandwidth.
  const AccessMix mix = AccessMix::ReadOnly();
  const double cxl_lat = GetProfile(MemoryPath::kLocalCxl).IdleLatencyNs(mix);
  const double remote_lat = GetProfile(MemoryPath::kRemoteDram).IdleLatencyNs(mix);
  EXPECT_LT(cxl_lat / remote_lat, 2.0);
  const double cxl_bw = GetProfile(MemoryPath::kLocalCxl).PeakBandwidthGBps(mix);
  const double remote_bw = GetProfile(MemoryPath::kRemoteDram).PeakBandwidthGBps(mix);
  EXPECT_GT(cxl_bw / remote_bw, 0.5);
}

TEST(Fig4ShapeTest, RandomVsSequentialNoSignificantDisparity) {
  for (MemoryPath path : {MemoryPath::kLocalDram, MemoryPath::kRemoteDram,
                          MemoryPath::kLocalCxl, MemoryPath::kRemoteCxl}) {
    for (const AccessMix& mix : {AccessMix::ReadOnly(), AccessMix::WriteOnly()}) {
      workload::MlcConfig rnd_cfg;
      rnd_cfg.pattern = mem::AccessPattern::kRandom;
      MlcBenchmark seq(GetProfile(path));
      MlcBenchmark rnd(GetProfile(path), rnd_cfg);
      const double ratio =
          rnd.ClosedLoopPoint(mix).achieved_gbps / seq.ClosedLoopPoint(mix).achieved_gbps;
      EXPECT_GT(ratio, 0.93);
      EXPECT_LE(ratio, 1.02);
    }
  }
}

TEST(Fig4ShapeTest, OffloadInsightHolds) {
  // §3.4 key insight quantified end-to-end: with MMEM at 90% of peak,
  // moving 20% of the stream to CXL cuts the blended latency.
  const AccessMix mix = AccessMix::ReadOnly();
  const auto& dram = GetProfile(MemoryPath::kLocalDram);
  const auto& cxl = GetProfile(MemoryPath::kLocalCxl);
  const double offered = 0.90 * dram.PeakBandwidthGBps(mix);
  const double all_dram = dram.LoadedLatencyNs(mix, offered);
  const double blended = 0.8 * dram.LoadedLatencyNs(mix, 0.8 * offered) +
                         0.2 * cxl.LoadedLatencyNs(mix, 0.2 * offered);
  EXPECT_LT(blended, all_dram);
}

}  // namespace
}  // namespace cxl
