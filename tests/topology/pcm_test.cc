#include "src/topology/pcm.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/mem/access.h"
#include "src/telemetry/metrics.h"

namespace cxl::topology {
namespace {

using mem::AccessMix;

TEST(PcmTest, SocketDramCountersAggregate) {
  const Platform p = Platform::CxlServer(true);  // 4 SNC domains per socket.
  TrafficModel tm(p);
  tm.AddMemoryTraffic(0, p.DramNodes(0)[0], AccessMix::ReadOnly(), 20.0);
  tm.AddMemoryTraffic(0, p.DramNodes(0)[1], AccessMix::ReadOnly(), 10.0);
  const auto snap = TakePcmSnapshot(p, tm.Solve());
  ASSERT_EQ(snap.sockets.size(), 2u);
  EXPECT_NEAR(snap.sockets[0].dram_read_write_gbps, 30.0, 0.1);
  EXPECT_NEAR(snap.sockets[1].dram_read_write_gbps, 0.0, 1e-9);
}

TEST(PcmTest, RemoteCxlLeavesUpiColdTheRsfDiagnostic) {
  // §3.2: saturating remote CXL shows UPI "consistently below 30%" — the
  // bottleneck is the Remote Snoop Filter, not the interconnect.
  const Platform p = Platform::CxlServer(false);
  TrafficModel tm(p);
  // Offer far more than the remote path to one card can take (the paper's
  // single-device read experiment).
  tm.AddMemoryTraffic(1, p.CxlNodes()[0], AccessMix::Ratio(2, 1), 60.0);
  const auto sol = tm.Solve();
  const auto snap = TakePcmSnapshot(p, sol);
  // The flow is RSF-capped...
  EXPECT_LT(sol.flows[0].achieved_gbps, 21.0);
  // ...while UPI stays under 30%.
  EXPECT_LT(snap.MaxUpiUtilization(), 0.30);
  // And the CXL devices themselves are far from their PCIe capacity.
  for (const auto& card : snap.cxl_cards) {
    EXPECT_LT(card.utilization, 0.5);
  }
}

TEST(PcmTest, RemoteDramDoesLoadUpi) {
  // Contrast: cross-socket DRAM traffic genuinely loads the interconnect.
  const Platform p = Platform::CxlServer(false);
  TrafficModel tm(p);
  tm.AddMemoryTraffic(1, p.DramNodes(0)[0], AccessMix::ReadOnly(), 120.0);
  const auto snap = TakePcmSnapshot(p, tm.Solve());
  EXPECT_GT(snap.MaxUpiUtilization(), 0.8);
}

TEST(PcmTest, MaxUpiUtilizationIsTheHottestLink) {
  const Platform p = Platform::CxlServer(false);
  TrafficModel tm(p);
  tm.AddMemoryTraffic(1, p.DramNodes(0)[0], AccessMix::ReadOnly(), 120.0);
  const auto snap = TakePcmSnapshot(p, tm.Solve());
  double expected = 0.0;
  for (const auto& link : snap.upi) {
    expected = std::max(expected, link.utilization);
  }
  EXPECT_DOUBLE_EQ(snap.MaxUpiUtilization(), expected);
  EXPECT_GT(expected, 0.0);
  // An idle platform reads zero, not garbage.
  TrafficModel idle(p);
  EXPECT_DOUBLE_EQ(TakePcmSnapshot(p, idle.Solve()).MaxUpiUtilization(), 0.0);
}

TEST(PcmTest, SampleSnapshotFillsPerPathSeries) {
  const Platform p = Platform::CxlServer(false);
  TrafficModel tm(p);
  tm.AddMemoryTraffic(0, p.DramNodes(0)[0], AccessMix::ReadOnly(), 20.0);
  tm.AddMemoryTraffic(0, p.CxlNodes()[0], AccessMix::ReadOnly(), 10.0);
  const auto snap = TakePcmSnapshot(p, tm.Solve());

  telemetry::MetricRegistry registry;
  const PcmTelemetryHandles handles = AttachPcmTelemetry(registry, snap);
  SamplePcmSnapshot(handles, 100.0, snap);
  SamplePcmSnapshot(handles, 200.0, snap);
  const telemetry::Timeline& timeline = registry.timeline();

  // One bandwidth + one utilization series per socket, UPI link, and card.
  const size_t expected =
      2 * (snap.sockets.size() + snap.upi.size() + snap.cxl_cards.size());
  EXPECT_EQ(timeline.series().size(), expected);
  const auto& skt0 = timeline.series().at("pcm.skt0.dram_gbps");
  ASSERT_EQ(skt0.size(), 2u);
  EXPECT_DOUBLE_EQ(skt0.points()[0].t_ms, 100.0);
  EXPECT_NEAR(skt0.Latest(), snap.sockets[0].dram_read_write_gbps, 1e-12);
  EXPECT_NEAR(timeline.series().at("pcm.cxl0.gbps").Latest(),
              snap.cxl_cards[0].achieved_gbps, 1e-12);
  EXPECT_NEAR(timeline.series().at("pcm.upi0.util").Latest(), snap.upi[0].utilization, 1e-12);
}

}  // namespace
}  // namespace cxl::topology
