#include "src/workload/stream.h"

#include <gtest/gtest.h>

#include "src/mem/profiles.h"
#include "tests/mem/memory_path_printer.h"

namespace cxl::workload {
namespace {

using mem::GetProfile;
using mem::MemoryPath;

TEST(StreamTriadTest, MmemReachesNearPeak) {
  const auto r = RunStreamTriad(GetProfile(MemoryPath::kLocalDram));
  // Triad mix is 2:1 -> peak ~63.5; 16 threads with deep prefetch get close.
  EXPECT_GT(r.triad_gbps, 55.0);
  EXPECT_LE(r.triad_gbps, 63.6);
  EXPECT_GT(r.utilization, 0.85);
}

TEST(StreamTriadTest, CxlTriadCompetitive) {
  // Streaming hides CXL's latency: triad loses far less than the 2.6x
  // latency gap suggests.
  const auto dram = RunStreamTriad(GetProfile(MemoryPath::kLocalDram));
  const auto cxl = RunStreamTriad(GetProfile(MemoryPath::kLocalCxl));
  EXPECT_GT(cxl.triad_gbps / dram.triad_gbps, 0.70);
  EXPECT_LT(cxl.triad_gbps / dram.triad_gbps, 1.0);
}

TEST(StreamTriadTest, RemoteCxlCollapses) {
  const auto r = RunStreamTriad(GetProfile(MemoryPath::kRemoteCxl));
  EXPECT_LT(r.triad_gbps, 21.0);  // RSF ceiling.
}

TEST(StreamTriadTest, FewThreadsFewerBytes) {
  StreamConfig one;
  one.threads = 1;
  const auto single = RunStreamTriad(GetProfile(MemoryPath::kLocalDram), one);
  const auto full = RunStreamTriad(GetProfile(MemoryPath::kLocalDram));
  EXPECT_LT(single.triad_gbps, full.triad_gbps);
  EXPECT_GT(single.triad_gbps, 5.0);  // One core still streams ~15 GB/s.
}

TEST(PointerChaseTest, SingleChainMeasuresIdleLatency) {
  // The canonical latency benchmark: one dependent chain = idle latency
  // (with the small random-access factor).
  const auto dram = RunPointerChase(GetProfile(MemoryPath::kLocalDram));
  EXPECT_NEAR(dram.ns_per_hop, 97.0 * 1.02, 1.0);
  const auto cxl = RunPointerChase(GetProfile(MemoryPath::kLocalCxl));
  EXPECT_NEAR(cxl.ns_per_hop, 250.42 * 1.01, 3.0);
}

TEST(PointerChaseTest, ChaseExposesFullLatencyGap) {
  // Unlike triad, the chase pays the whole 2.4-2.6x CXL latency penalty.
  const auto dram = RunPointerChase(GetProfile(MemoryPath::kLocalDram));
  const auto cxl = RunPointerChase(GetProfile(MemoryPath::kLocalCxl));
  const double ratio = cxl.ns_per_hop / dram.ns_per_hop;
  EXPECT_GT(ratio, 2.4);
  EXPECT_LT(ratio, 2.7);
}

TEST(PointerChaseTest, ManyChainsRaiseBandwidthAndLatency) {
  PointerChaseConfig many;
  many.parallel_chains = 512;
  const auto one = RunPointerChase(GetProfile(MemoryPath::kLocalDram));
  const auto lots = RunPointerChase(GetProfile(MemoryPath::kLocalDram), many);
  EXPECT_GT(lots.achieved_gbps, 100.0 * one.achieved_gbps);
  EXPECT_GT(lots.ns_per_hop, one.ns_per_hop);
}

TEST(PointerChaseTest, BandwidthConsistentWithLatency) {
  const auto r = RunPointerChase(GetProfile(MemoryPath::kRemoteDram));
  EXPECT_NEAR(r.achieved_gbps, 64.0 / r.ns_per_hop, 1e-9);
}

}  // namespace
}  // namespace cxl::workload
