#include "src/apps/kv/kvstore.h"

#include <gtest/gtest.h>

#include "src/apps/kv/server.h"
#include "src/os/page_allocator.h"
#include "src/topology/platform.h"
#include "src/util/units.h"
#include "src/workload/ycsb.h"

namespace cxl::apps::kv {
namespace {

using namespace cxl::literals;
using topology::Platform;
using workload::YcsbOp;

constexpr uint64_t kPageBytes = 16ull << 10;

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest() : platform_(Platform::CxlServer(false)), alloc_(platform_, kPageBytes) {}

  KvStoreConfig SmallConfig() {
    KvStoreConfig cfg;
    cfg.record_count = 1'000'000;  // 1 GiB at 1 KiB.
    return cfg;
  }

  Platform platform_;
  os::PageAllocator alloc_;
};

TEST_F(KvStoreTest, CreateAllocatesDataset) {
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.DramNodes()), SmallConfig());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->region().bytes(), SmallConfig().DatasetBytes());
  EXPECT_EQ(store->cached_records(), 1'000'000u);
  EXPECT_DOUBLE_EQ(store->DramShare(), 1.0);
  store->Free();
}

TEST_F(KvStoreTest, CreateRejectsAStoreWithNoRecord) {
  KvStoreConfig cfg = SmallConfig();
  cfg.record_count = 0;
  const auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.DramNodes()), cfg);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(alloc_.page_count(), 0u);  // Nothing was allocated.
}

TEST_F(KvStoreTest, ReadCostIsLighterThanUpdate) {
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind({0}), SmallConfig());
  ASSERT_TRUE(store.ok());
  const auto read = store->Access(YcsbOp{YcsbOp::Type::kRead, 5});
  const auto update = store->Access(YcsbOp{YcsbOp::Type::kUpdate, 5});
  EXPECT_LT(read.mem_lines, update.mem_lines);
  EXPECT_FALSE(read.is_write);
  EXPECT_TRUE(update.is_write);
  store->Free();
}

TEST_F(KvStoreTest, AccessResolvesToValidNode) {
  auto store = KvStore::Create(
      alloc_,
      os::NumaPolicy::WeightedInterleave(platform_.DramNodes(), platform_.CxlNodes(), 1, 1),
      SmallConfig());
  ASSERT_TRUE(store.ok());
  workload::YcsbGenerator gen(workload::YcsbWorkload::kC, 1'000'000);
  int cxl_hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const auto cost = store->Access(gen.Next());
    ASSERT_GE(cost.node, 0);
    if (platform_.node(cost.node).kind == topology::NodeKind::kCxl) {
      ++cxl_hits;
    }
  }
  // 1:1 placement: roughly half the (band-scattered) traffic lands on CXL.
  // Tolerance is wide because the Zipfian head concentrates mass on a few
  // bands whose hashed placement dominates the sample (real systems have the
  // same lumpiness: the hottest keys live *somewhere*).
  EXPECT_NEAR(static_cast<double>(cxl_hits) / kN, 0.5, 0.15);
  store->Free();
}

TEST_F(KvStoreTest, InterleaveShareFollowsPolicy) {
  auto store = KvStore::Create(
      alloc_,
      os::NumaPolicy::WeightedInterleave(platform_.DramNodes(), platform_.CxlNodes(), 3, 1),
      SmallConfig());
  ASSERT_TRUE(store.ok());
  EXPECT_NEAR(store->DramShare(), 0.75, 1e-6);
  store->Free();
}

TEST_F(KvStoreTest, FlashCapsResidentBytes) {
  KvStoreConfig cfg = SmallConfig();
  cfg.flash = true;
  cfg.maxmemory_bytes = 512_MiB;
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.DramNodes()), cfg);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->region().bytes(), 512_MiB);
  EXPECT_EQ(store->cached_records(), 512u * 1024);
  EXPECT_NE(store->flash(), nullptr);
  store->Free();
}

TEST_F(KvStoreTest, FlashColdReadHitsSsd) {
  KvStoreConfig cfg = SmallConfig();
  cfg.flash = true;
  cfg.maxmemory_bytes = 512_MiB;  // Keys >= 512Ki are cold.
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.DramNodes()), cfg);
  ASSERT_TRUE(store.ok());
  const auto hot = store->Access(YcsbOp{YcsbOp::Type::kRead, 5});
  EXPECT_FALSE(hot.ssd_read);
  const auto cold = store->Access(YcsbOp{YcsbOp::Type::kRead, 600'000});
  EXPECT_TRUE(cold.ssd_read);
  EXPECT_GT(cold.ssd_read_bytes, 0u);
  store->Free();
}

TEST_F(KvStoreTest, FlashRecentInsertIsCached) {
  KvStoreConfig cfg = SmallConfig();
  cfg.flash = true;
  cfg.maxmemory_bytes = 512_MiB;
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.DramNodes()), cfg);
  ASSERT_TRUE(store.ok());
  // Insert a brand-new key, then read it back: memtable-resident.
  const auto ins = store->Access(YcsbOp{YcsbOp::Type::kInsert, 1'000'000});
  EXPECT_GT(ins.ssd_write_bytes, 0u);  // WAL.
  const auto read = store->Access(YcsbOp{YcsbOp::Type::kRead, 1'000'000});
  EXPECT_FALSE(read.ssd_read);
  store->Free();
}

TEST_F(KvStoreTest, FlashUpdateChargesWal) {
  KvStoreConfig cfg = SmallConfig();
  cfg.flash = true;
  cfg.maxmemory_bytes = 512_MiB;
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.DramNodes()), cfg);
  ASSERT_TRUE(store.ok());
  const auto upd = store->Access(YcsbOp{YcsbOp::Type::kUpdate, 5});
  EXPECT_GE(upd.ssd_write_bytes, cfg.value_bytes);
  EXPECT_GT(upd.software_ns, 0.0);
  store->Free();
}

TEST_F(KvStoreTest, TieringReceivesHeat) {
  os::TieredMemory tiering(alloc_, os::TieringConfig{});
  auto store = KvStore::Create(alloc_, os::NumaPolicy::Bind(platform_.CxlNodes()), SmallConfig(),
                               &tiering);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    store->Access(YcsbOp{YcsbOp::Type::kRead, 0});
  }
  EXPECT_GT(alloc_.counters().numa_hint_faults, 0u);
  store->Free();
}

TEST_F(KvStoreTest, Fig8PresetIsLighter) {
  const KvStoreConfig base;
  const KvStoreConfig fig8 = KvStoreConfig::Fig8Preset(1000);
  EXPECT_LT(fig8.lines_per_read, base.lines_per_read);
  EXPECT_EQ(fig8.record_count, 1000u);
}

// End-to-end server sanity: MMEM placement beats CXL-only placement.
TEST_F(KvStoreTest, ServerSimOrdersPlacements) {
  auto run = [&](const os::NumaPolicy& policy) {
    os::PageAllocator alloc(platform_, kPageBytes);
    KvStoreConfig cfg;
    cfg.record_count = 1'000'000;
    auto store = KvStore::Create(alloc, policy, cfg);
    EXPECT_TRUE(store.ok());
    workload::YcsbGenerator gen(workload::YcsbWorkload::kC, cfg.record_count, 3);
    KvServerConfig scfg;
    scfg.total_ops = 40'000;
    scfg.warmup_ops = 10'000;
    KvServerSim sim(platform_, *store, gen, scfg);
    const auto result = sim.Run();
    store->Free();
    return result.throughput_kops;
  };
  const double mmem = run(os::NumaPolicy::Bind(platform_.DramNodes(0)));
  const double cxl = run(os::NumaPolicy::Bind(platform_.CxlNodes()));
  EXPECT_GT(mmem, cxl);
  EXPECT_LT(mmem / cxl, 2.0);  // Application-level, not raw-device, gap.
}

}  // namespace
}  // namespace cxl::apps::kv
