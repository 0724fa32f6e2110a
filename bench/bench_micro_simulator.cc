// google-benchmark micro-benchmarks of the simulator's own hot paths:
// event-heap push/pop at the KV server's depth, the KV server's op dispatch
// loop, Zipfian draws, page allocation, the tiering daemon's tick on a
// streaming region and its cold-pool selection, the bandwidth solver, and a
// full (small) KeyDB experiment end to end.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/sim/event_heap.h"
#include "src/util/units.h"

namespace {

using namespace cxl;

// Steady-state event traffic: the heap is held at Arg entries and each
// iteration pops the earliest and pushes one successor, as every KV
// completion does. Arg(7) is the KV server's depth (one entry per server
// thread). Items are pops.
void BM_EventHeapPushPop(benchmark::State& state) {
  struct Completion {
    double submit_time;
    bool is_write;
  };
  const int depth = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> delays(4096);
  for (double& d : delays) {
    d = rng.NextExponential(1000.0);
  }
  sim::EventHeap<Completion> heap;
  size_t next = 0;
  for (int i = 0; i < depth; ++i) {
    heap.Push(delays[next++], Completion{0.0, false});
  }
  for (auto _ : state) {
    const Completion done = heap.Pop();
    benchmark::DoNotOptimize(done);
    heap.Push(heap.Now() + delays[next++ % delays.size()], Completion{heap.Now(), !done.is_write});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventHeapPushPop)->Arg(7)->Arg(64);

// KvServerSim::Run on a small kv-notier-shaped cell: a 1 GiB store on MMEM
// (no daemon, no faults) under YCSB-A. Only Run is timed; the store and
// generator are rebuilt outside the timing. Items are ops, so the rate is
// the dispatch cost per op (event heap, service time, KvStore::Access).
void BM_KvServerDispatch(benchmark::State& state) {
  constexpr uint64_t kDatasetBytes = 1 * kGiB;
  constexpr uint64_t kValueBytes = 1 * kKiB;
  const auto platform = topology::Platform::CxlServer(/*snc4=*/false);
  const auto setup = core::MakeCapacitySetup(core::CapacityConfig::kMmem, platform);
  apps::kv::KvServerConfig server_cfg;
  server_cfg.total_ops = 100'000;
  server_cfg.warmup_ops = 10'000;
  for (auto _ : state) {
    state.PauseTiming();
    os::PageAllocator allocator(platform, 16 * kKiB);
    apps::kv::KvStoreConfig store_cfg;
    store_cfg.record_count = kDatasetBytes / kValueBytes;
    store_cfg.value_bytes = kValueBytes;
    auto store = apps::kv::KvStore::Create(allocator, setup.policy, store_cfg);
    if (!store.ok()) {
      state.SkipWithError("KvStore::Create failed");
      break;
    }
    workload::YcsbGenerator gen(workload::YcsbWorkload::kA, store_cfg.record_count, 1);
    apps::kv::KvServerSim sim(platform, *store, gen, server_cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.Run().throughput_kops);
    state.PauseTiming();
    store->Free();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(server_cfg.total_ops));
}
BENCHMARK(BM_KvServerDispatch)->Unit(benchmark::kMillisecond);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ZipfianDistribution dist(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext)->Arg(1 << 20)->Arg(1 << 26);

// Allocates and frees a MemoryRegion of Arg pages on a fresh allocator, as a
// KV cell does; Arg(1 << 21) is the cells' 32 GiB store of 16 KiB pages.
void BM_PageAllocate(benchmark::State& state) {
  const auto platform = topology::Platform::CxlServer(false);
  const auto policy =
      os::NumaPolicy::WeightedInterleave(platform.DramNodes(), platform.CxlNodes(), 3, 1);
  constexpr uint64_t kPageBytes = 16 * kKiB;
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    os::PageAllocator alloc(platform, kPageBytes);
    auto region = os::MemoryRegion::Allocate(alloc, policy, n * kPageBytes);
    benchmark::DoNotOptimize(region.ok());
    region->Free();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PageAllocate)->Arg(4096)->Arg(65536)->Arg(1 << 21);

// The daemon of one bench_fig7 Hot-Promote cell (apps/spark/cluster.cc):
// 286,103 pages of 2 MiB in a 1:1 weighted interleave, DRAM sized to half
// of them, hot page selection at 3000 MB/s. A 1/50 window advances each
// 1 s tick at 400 accesses per page, so after the 60 warming ticks every
// page is warm and every word dense. One iteration times one Tick; the
// window's accesses are recorded outside the timing, as id spans the way
// the cluster records them. Items are the pages the ticks visited; the
// dense_words_skipped counter is the words per tick the heat bounds let
// the pass skip, and heat_catch_ups the words per tick brought current
// (by the window's spans and the tick's pass).
void BM_DaemonTickStreaming(benchmark::State& state) {
  constexpr double kRegionBytes = 600e9;
  topology::PlatformOptions opt;
  opt.cxl_cards = 2;
  opt.dram_per_socket = static_cast<uint64_t>(kRegionBytes / 4.0);
  const auto platform = topology::Platform::Build(opt);
  os::PageAllocator alloc(platform);
  os::TieringConfig cfg;
  cfg.promote_rate_limit_mbps = 3000.0;
  cfg.hint_fault_sample_rate = 0.05;
  os::TieredMemory tiering(alloc, cfg);
  auto region = os::MemoryRegion::Allocate(
      alloc, os::NumaPolicy::WeightedInterleave(platform.DramNodes(), platform.CxlNodes(), 1, 1),
      static_cast<uint64_t>(kRegionBytes));
  if (!region.ok()) {
    state.SkipWithError("region allocation failed");
    return;
  }
  const size_t pages = region->page_count();
  const size_t window = pages / 50;
  size_t cursor = 0;
  const auto record = [&](os::PageId first, uint64_t count) {
    tiering.RecordAccessRun(first, count, 400);
  };
  const auto touch_window = [&] {
    const size_t end = cursor + window;
    region->ForEachSpan(cursor, std::min(end, pages), record);
    if (end > pages) {
      region->ForEachSpan(0, end - pages, record);
    }
    cursor = end % pages;
  };
  for (int tick = 0; tick < 60; ++tick) {
    touch_window();
    tiering.Tick(1.0);
  }
  int64_t visited = 0;
  uint64_t skipped = 0;
  uint64_t catch_ups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    touch_window();
    state.ResumeTiming();
    const os::TieredMemory::TickResult r = tiering.Tick(1.0);
    benchmark::DoNotOptimize(r);
    visited += static_cast<int64_t>(r.pages_visited);
    skipped += r.dense_words_skipped;
    catch_ups += r.heat_catch_ups;
  }
  state.SetItemsProcessed(visited);
  // Dense words the pass skipped on their heat bounds, and words brought
  // current (by the window's spans and the tick), per tick.
  state.counters["dense_words_skipped"] =
      benchmark::Counter(static_cast<double>(skipped), benchmark::Counter::kAvgIterations);
  state.counters["heat_catch_ups"] =
      benchmark::Counter(static_cast<double>(catch_ups), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DaemonTickStreaming)->Unit(benchmark::kMicrosecond);

// The daemon of one kv-hotpromote cell (hostbench, bench_fig5): 32 GiB of
// 1 KiB records on 16 KiB pages, the Hot-Promote platform and tiering
// defaults under hot page selection, YCSB-A, one tick per 10,000
// operations. The warm set stays a small fraction of the 2,097,152 page
// slots, and the DRAM pages outside it cover the cold pool, so each tick
// fills the pool by one id walk. One iteration times one Tick after 22
// warming ticks; the operations run outside the timing. The warm set
// grows for the first ~150 ticks, so the iteration count is fixed at 110
// (132 ticks, a hostbench process's count) to keep the counters
// independent of the machine's speed. Items are the pages the ticks
// visited; the pool_offers, pool_shrinks, pages_visited and
// heat_catch_ups counters are per tick.
void BM_DaemonTickKv(benchmark::State& state) {
  constexpr uint64_t kDatasetBytes = 32 * kGiB;
  const topology::Platform platform = core::MakeHotPromotePlatform(kDatasetBytes);
  const core::CapacitySetup setup =
      core::MakeCapacitySetup(core::CapacityConfig::kHotPromote, platform);
  os::PageAllocator alloc(platform, 16 * kKiB);
  os::TieringConfig cfg = core::DefaultTieringConfig();
  cfg.policy = "hot-page-selection";
  os::TieredMemory tiering(alloc, cfg);
  apps::kv::KvStoreConfig store_cfg;
  store_cfg.record_count = kDatasetBytes / store_cfg.value_bytes;
  auto store = apps::kv::KvStore::Create(alloc, setup.policy, store_cfg, &tiering);
  if (!store.ok()) {
    state.SkipWithError("KvStore::Create failed");
    return;
  }
  workload::YcsbGenerator gen(workload::YcsbWorkload::kA, store_cfg.record_count, 1);
  const auto run_ops = [&] {
    for (int op = 0; op < 10'000; ++op) {
      store->Access(gen.Next());
    }
  };
  for (int tick = 0; tick < 22; ++tick) {
    run_ops();
    tiering.Tick(0.05);
  }
  uint64_t visited = 0;
  uint64_t offers = 0;
  uint64_t shrinks = 0;
  uint64_t catch_ups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    run_ops();
    state.ResumeTiming();
    const os::TieredMemory::TickResult r = tiering.Tick(0.05);
    benchmark::DoNotOptimize(r);
    visited += r.pages_visited;
    offers += r.pool_offers;
    shrinks += r.pool_shrinks;
    catch_ups += r.heat_catch_ups;
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
  const auto per_tick = [](uint64_t total) {
    return benchmark::Counter(static_cast<double>(total), benchmark::Counter::kAvgIterations);
  };
  state.counters["pool_offers"] = per_tick(offers);
  state.counters["pool_shrinks"] = per_tick(shrinks);
  state.counters["pages_visited"] = per_tick(visited);
  state.counters["heat_catch_ups"] = per_tick(catch_ups);
}
BENCHMARK(BM_DaemonTickKv)->Iterations(110)->Unit(benchmark::kMicrosecond);

// The cold pool's selection in that tick, alone: the 143,051 DRAM pages of
// the interleaved region (every other id) in 5,722-page windows of equal
// heat, each window half as hot as the one before, so every window
// undercuts the cut. They are offered into k = 4,096 (ColdPoolSize's
// floor), then Finish sorts the survivors. Items are offers.
void BM_ColdPoolSelector(benchmark::State& state) {
  constexpr uint64_t kDramPages = 143'051;
  constexpr uint64_t kWindowPages = 5'722;
  constexpr uint64_t kPool = 4'096;
  std::vector<os::ColdPoolSelector::Key> stream;
  stream.reserve(kDramPages);
  float heat = 20.0f;  // 400 accesses at the 0.05 sample rate.
  for (uint64_t i = 0; i < kDramPages; ++i) {
    if (i > 0 && i % kWindowPages == 0) {
      heat *= 0.5f;
    }
    stream.push_back(os::ColdPoolSelector::KeyOf(heat, 2 * i));
  }
  std::vector<os::ColdPoolSelector::Key> pool;
  for (auto _ : state) {
    os::ColdPoolSelector selector(pool, kPool);
    for (const os::ColdPoolSelector::Key key : stream) {
      selector.Offer(key);
    }
    selector.Finish();
    benchmark::DoNotOptimize(pool.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kDramPages));
}
BENCHMARK(BM_ColdPoolSelector)->Unit(benchmark::kMicrosecond);

void BM_BandwidthSolve(benchmark::State& state) {
  const auto platform = topology::Platform::CxlServer(true);
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    topology::TrafficModel traffic(platform);
    for (int i = 0; i < flows; ++i) {
      const auto nodes = platform.nodes();
      traffic.AddMemoryTraffic(i % 2, static_cast<topology::NodeId>(i % nodes.size()),
                               mem::AccessMix::Ratio(2, 1), 5.0);
    }
    benchmark::DoNotOptimize(traffic.Solve().flows.size());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_BandwidthSolve)->Arg(4)->Arg(64);

void BM_MlcClosedLoop(benchmark::State& state) {
  workload::MlcBenchmark mlc(mem::GetProfile(mem::MemoryPath::kLocalCxl));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlc.ClosedLoopPoint(mem::AccessMix::Ratio(2, 1)).achieved_gbps);
  }
}
BENCHMARK(BM_MlcClosedLoop);

// Histogram::Record hot path. Arg is the number of distinct values cycled
// through: Arg(1) always hits the last-(value -> bucket) cache (the
// optimized path); a large Arg defeats the cache on every sample, which is
// exactly the pre-cache cost (one log10 per Record) — so the two arguments
// read as after/before throughput for the common repeated-latency case.
void BM_HistogramRecord(benchmark::State& state) {
  const int distinct = static_cast<int>(state.range(0));
  std::vector<double> values(static_cast<size_t>(distinct));
  Rng rng(7);
  for (auto& v : values) {
    v = rng.NextDouble(10.0, 1e6);
  }
  Histogram hist;
  size_t i = 0;
  for (auto _ : state) {
    hist.Record(values[i]);
    if (++i == values.size()) {
      i = 0;
    }
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Arg(1)->Arg(4)->Arg(4096);

// Hot-path registry lookups by name. The per-epoch telemetry path resolves
// the same metric names thousands of times; with std::less<> heterogeneous
// lookup a string_view key probes the map without materializing a
// std::string per call. The name is >15 chars so it does NOT fit SSO — the
// pre-transparent-comparator cost was one heap allocation per lookup.
void BM_RegistryLookupByName(benchmark::State& state) {
  telemetry::MetricRegistry registry;
  constexpr std::string_view kName = "pcm.socket0.dram.read_gbps.total";  // 32 chars, no SSO.
  registry.GetCounter(kName).Increment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.GetCounter(kName));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryLookupByName);

// Same shape for Timeline::Series, the other per-epoch name-keyed lookup.
void BM_TimelineSeriesLookup(benchmark::State& state) {
  telemetry::Timeline timeline;
  constexpr std::string_view kName = "pcm.socket0.cxl.write_gbps.series";
  timeline.Series(kName).Sample(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&timeline.Series(kName));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelineSeriesLookup);

void BM_KeyDbExperimentEndToEnd(benchmark::State& state) {
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = 2 * kGiB;
  opt.total_ops = 30'000;
  opt.warmup_ops = 5'000;
  for (auto _ : state) {
    const auto res = core::RunKeyDbExperiment(core::CapacityConfig::kInterleave11,
                                              workload::YcsbWorkload::kC, opt);
    benchmark::DoNotOptimize(res.ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(opt.total_ops));
}
BENCHMARK(BM_KeyDbExperimentEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN(): google-benchmark strips its --benchmark_*
// flags first, then the bench Context parses (and checks) the rest.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  auto ctx = cxl::bench::Context::FromArgs(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!ctx.Write("bench_micro_simulator")) {
    return 1;
  }
  return 0;
}
