// Extension bench: the three kernel promotion mechanisms the paper touches
// (§2.3, §8) head to head on KeyDB:
//   - hot page selection (post-v6.1, what the paper's Hot-Promote uses),
//   - MRU NUMA balancing (the earlier patch),
//   - TPP-like promotion (Meta's prototype — the one the paper "faced
//     challenges with ... resulting in unexplained performance degradation"
//     on bandwidth-intensive workloads).
#include <iostream>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/os/policy_registry.h"
#include "src/util/units.h"

namespace {

using namespace cxl;

struct PolicyRun {
  apps::kv::KvServerSim::Result result;
  os::VmCounters counters;
};

// One sweep cell: the registry name that selects the policy and the label
// its table row prints.
struct PolicyCell {
  const char* policy;
  const char* label;
};

StatusOr<PolicyRun> RunKeyDb(const char* policy, workload::OpSource& source,
                             uint64_t dataset_bytes, telemetry::MetricRegistry* sink = nullptr) {
  topology::Platform platform = core::MakeHotPromotePlatform(dataset_bytes);
  os::PageAllocator allocator(platform, 16ull << 10);
  os::TieringConfig tc = core::DefaultTieringConfig();
  tc.policy = policy;
  // A realistic production cap — which TPP predates and ignores.
  tc.promote_rate_limit_mbps = 256.0;
  os::TieredMemory tiering(allocator, tc);
  os::TieredMemory::Observers obs;
  obs.telemetry = sink;
  tiering.Attach(obs);
  apps::kv::KvStoreConfig store_cfg;
  store_cfg.record_count = dataset_bytes / kKiB;
  const auto setup = core::MakeCapacitySetup(core::CapacityConfig::kHotPromote, platform);
  auto store = apps::kv::KvStore::Create(allocator, setup.policy, store_cfg, &tiering);
  if (!store.ok()) {
    return store.status();
  }
  apps::kv::KvServerConfig scfg;
  scfg.total_ops = 150'000;
  scfg.warmup_ops = 40'000;
  apps::kv::KvServerSim sim(platform, *store, source, scfg, &tiering, sink);
  PolicyRun run{sim.Run(), allocator.counters()};
  store->Free();
  return run;
}

// Streaming scan source: sequential sweeps over the whole keyspace — the
// bandwidth-intensive pattern that broke TPP for the paper.
class ScanSource final : public workload::OpSource {
 public:
  explicit ScanSource(uint64_t keys) : keys_(keys) {}
  workload::YcsbOp Next() override {
    // Large-prime stride: sweeps the keyspace touching fresh pages fast.
    cursor_ += 524'287;
    return workload::YcsbOp{workload::YcsbOp::Type::kRead, cursor_ % keys_};
  }
  double WriteFraction() const override { return 0.0; }

 private:
  uint64_t keys_;
  uint64_t cursor_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::Context::FromArgs(&argc, argv);
  auto& bench_telemetry = ctx.telemetry();
  constexpr uint64_t kDataset = 8ull << 30;
  const std::vector<PolicyCell> cells = {
      {os::kHotPageSelectionPolicyName, "hot-page-selection"},
      {os::kMruBalancingPolicyName, "MRU-balancing"},
      {os::kTppLikePolicyName, "TPP-like"}};
  runner::SweepOptions sweep_options;
  sweep_options.jobs = ctx.jobs();
  for (const PolicyCell& cell : cells) {
    sweep_options.cell_labels.push_back(cell.label);
  }
  runner::SweepStats stats;
  // Per-cell registries (single-writer under the sweep), merged in index
  // order after each sweep so output is --jobs-independent.
  std::vector<telemetry::MetricRegistry> zipf_sinks(
      bench_telemetry.enabled() ? cells.size() : 0);
  std::vector<telemetry::MetricRegistry> scan_sinks(
      bench_telemetry.enabled() ? cells.size() : 0);

  // One policy per cell; each cell owns its op source (they are stateful
  // cursors, so sharing one across threads would skew the comparison).
  PrintSection(std::cout, "Zipfian KeyDB (YCSB-B): stable hot set — all policies should work");
  Table zipf({"policy", "kops/s", "p99 us", "promoted", "demoted", "migrated GB"});
  const auto zipf_runs = runner::RunSweep(
      cells,
      [&cells, &zipf_sinks](const PolicyCell& cell, uint64_t /*seed*/) {
        workload::YcsbGenerator gen(workload::YcsbWorkload::kB, kDataset / kKiB, 1);
        telemetry::MetricRegistry* sink =
            zipf_sinks.empty() ? nullptr
                               : &zipf_sinks[static_cast<size_t>(&cell - cells.data())];
        return RunKeyDb(cell.policy, gen, kDataset, sink);
      },
      sweep_options, &stats);
  bench_telemetry.RecordSweep("zipf", stats);
  if (!zipf_runs.ok()) {
    std::cerr << "store: " << zipf_runs.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < zipf_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(zipf_sinks[i],
                                         std::string("zipf/") + cells[i].label + "/");
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const PolicyRun& run = (*zipf_runs)[i];
    zipf.Row()
        .Cell(cells[i].label)
        .Cell(run.result.throughput_kops, 1)
        .Cell(run.result.all_latency_us.p99(), 0)
        .Cell(run.counters.pgpromote_success)
        .Cell(run.counters.pgdemote)
        .Cell(BytesToGBd(run.result.migrated_bytes), 2);
  }
  zipf.Print(std::cout);

  PrintSection(std::cout,
               "Streaming scan: the bandwidth-intensive pattern that degraded TPP (§2.3)");
  Table scan({"policy", "kops/s", "p99 us", "promoted", "demoted", "migrated GB"});
  const auto scan_runs = runner::RunSweep(
      cells,
      [&cells, &scan_sinks](const PolicyCell& cell, uint64_t /*seed*/) {
        ScanSource source(kDataset / 1024);
        telemetry::MetricRegistry* sink =
            scan_sinks.empty() ? nullptr
                               : &scan_sinks[static_cast<size_t>(&cell - cells.data())];
        return RunKeyDb(cell.policy, source, kDataset, sink);
      },
      sweep_options, &stats);
  bench_telemetry.RecordSweep("scan", stats);
  if (!scan_runs.ok()) {
    std::cerr << "store: " << scan_runs.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < scan_sinks.size(); ++i) {
    bench_telemetry.registry().MergeFrom(scan_sinks[i],
                                         std::string("scan/") + cells[i].label + "/");
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const PolicyRun& run = (*scan_runs)[i];
    scan.Row()
        .Cell(cells[i].label)
        .Cell(run.result.throughput_kops, 1)
        .Cell(run.result.all_latency_us.p99(), 0)
        .Cell(run.counters.pgpromote_success)
        .Cell(run.counters.pgdemote)
        .Cell(BytesToGBd(run.result.migrated_bytes), 2);
  }
  scan.Print(std::cout);
  std::cout << "Reading: on the scan, TPP promotes everything it touches (no rate limit, no\n"
               "threshold) and the migration traffic + demotion churn eat into throughput —\n"
               "the paper's reason for using \"the well-tested kernel patches\" instead.\n";
  if (!ctx.Write("bench_promotion_policies")) {
    return 1;
  }
  return 0;
}
