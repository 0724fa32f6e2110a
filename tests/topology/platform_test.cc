#include "src/topology/platform.h"

#include <gtest/gtest.h>

#include "src/mem/access.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::topology {
namespace {

using mem::AccessMix;
using mem::MemoryPath;

// Capacity of the platform's nodes of one kind, in bytes.
uint64_t TotalBytes(const Platform& p, NodeKind kind) {
  uint64_t total = 0;
  for (const NumaNode& n : p.nodes()) {
    total += n.kind == kind ? n.capacity_bytes : 0;
  }
  return total;
}

TEST(PlatformTest, PaperCxlServerLayoutSncOff) {
  const Platform p = Platform::CxlServer(/*snc4=*/false);
  // 2 DRAM nodes (one per socket) + 2 CXL nodes, both on socket 0.
  EXPECT_EQ(p.DramNodes().size(), 2u);
  EXPECT_EQ(p.CxlNodes().size(), 2u);
  for (NodeId id : p.CxlNodes()) {
    EXPECT_EQ(p.node(id).socket, 0);
  }
  EXPECT_EQ(TotalBytes(p, NodeKind::kDram), 1024ull << 30);  // 1 TiB.
  EXPECT_EQ(TotalBytes(p, NodeKind::kCxl), 512ull << 30);    // 2 x 256 GiB.
}

TEST(PlatformTest, PaperCxlServerLayoutSnc4) {
  const Platform p = Platform::CxlServer(/*snc4=*/true);
  EXPECT_EQ(p.DramNodes().size(), 8u);  // 4 SNC domains x 2 sockets.
  EXPECT_EQ(p.DramNodes(0).size(), 4u);
  EXPECT_EQ(p.node(p.DramNodes(0)[0]).capacity_bytes, 128ull << 30);
}

TEST(PlatformTest, BaselineServerHasNoCxl) {
  PlatformOptions baseline;  // The CXL server without its cards.
  baseline.cxl_cards = 0;
  const Platform p = Platform::Build(baseline);
  EXPECT_TRUE(p.CxlNodes().empty());
  EXPECT_EQ(TotalBytes(p, NodeKind::kCxl), 0u);
  EXPECT_EQ(TotalBytes(p, NodeKind::kDram), 1024ull << 30);
}

TEST(PlatformTest, PathResolution) {
  const Platform p = Platform::CxlServer(false);
  const NodeId dram0 = p.DramNodes(0)[0];
  const NodeId dram1 = p.DramNodes(1)[0];
  const NodeId cxl = p.CxlNodes()[0];
  EXPECT_EQ(p.PathFor(0, dram0), MemoryPath::kLocalDram);
  EXPECT_EQ(p.PathFor(1, dram0), MemoryPath::kRemoteDram);
  EXPECT_EQ(p.PathFor(0, dram1), MemoryPath::kRemoteDram);
  EXPECT_EQ(p.PathFor(0, cxl), MemoryPath::kLocalCxl);
  EXPECT_EQ(p.PathFor(1, cxl), MemoryPath::kRemoteCxl);
}

TEST(PlatformTest, SncOffSocketHasFourXBandwidth) {
  // SNC-off: the whole socket (8 channels) is one node with 4x the 2-channel
  // profile's bandwidth.
  const Platform p = Platform::CxlServer(false);
  const NodeId dram0 = p.DramNodes(0)[0];
  const auto& prof = p.ProfileFor(0, dram0);
  EXPECT_NEAR(prof.PeakBandwidthGBps(AccessMix::ReadOnly()), 4.0 * 67.0, 1.0);
  // Latency law unchanged.
  EXPECT_NEAR(prof.IdleLatencyNs(AccessMix::ReadOnly()), 97.0, 0.5);
}

TEST(PlatformTest, Snc4DomainHasBaseBandwidth) {
  const Platform p = Platform::CxlServer(true);
  const NodeId dom = p.DramNodes(0)[0];
  EXPECT_NEAR(p.ProfileFor(0, dom).PeakBandwidthGBps(AccessMix::ReadOnly()), 67.0, 0.5);
}

TEST(PlatformTest, CxlProfileIndependentOfSnc) {
  const Platform p = Platform::CxlServer(true);
  const NodeId cxl = p.CxlNodes()[0];
  EXPECT_NEAR(p.ProfileFor(0, cxl).PeakBandwidthGBps(AccessMix::Ratio(2, 1)), 56.7, 0.3);
  EXPECT_NEAR(p.ProfileFor(1, cxl).PeakBandwidthGBps(AccessMix::Ratio(2, 1)), 20.4, 0.3);
}

TEST(PlatformTest, FpgaControllerOption) {
  PlatformOptions opt;
  opt.cxl_controller = mem::CxlController::kFpga;
  const Platform p = Platform::Build(opt);
  const NodeId cxl = p.CxlNodes()[0];
  EXPECT_LT(p.ProfileFor(0, cxl).PeakBandwidthGBps(AccessMix::ReadOnly()), 40.0);
}

TEST(PlatformTest, SsdProfileScalesWithDriveCount) {
  PlatformOptions one;
  one.ssd_count = 1;
  PlatformOptions two;
  two.ssd_count = 2;
  const Platform p1 = Platform::Build(one);
  const Platform p2 = Platform::Build(two);
  EXPECT_NEAR(p2.SsdProfile().PeakBandwidthGBps(AccessMix::ReadOnly()),
              2.0 * p1.SsdProfile().PeakBandwidthGBps(AccessMix::ReadOnly()), 1e-6);
}

}  // namespace
}  // namespace cxl::topology
