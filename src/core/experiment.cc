#include "src/core/experiment.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/os/page_allocator.h"
#include "src/os/vmstat.h"
#include "src/runner/sweep.h"
#include "src/topology/platform.h"
#include "src/util/units.h"

namespace cxl::core {

using apps::kv::KvServerConfig;
using apps::kv::KvServerSim;
using apps::kv::KvStore;
using apps::kv::KvStoreConfig;
using topology::Platform;

// Placement granularity for the KV experiments. Small enough that the
// Zipfian head spans hundreds of pages (real 4 KiB kernel pages hold ~4
// records; 16 KiB holds 16 of our 1 KiB records), so weighted interleaving
// spreads hot traffic by its ratios and the promotion daemon has genuine
// hot pages to find. 4 KiB would be faithful but quadruples bookkeeping for
// no change in behaviour.
constexpr uint64_t kKvPageBytes = 16 * kKiB;

namespace {

// End-of-run metrics: the figures' headline numbers plus the latency
// distributions, so --metrics-out captures what the stdout tables print.
void EmitKvResultTelemetry(telemetry::MetricRegistry* sink, const KvCellResult& result) {
  if (sink == nullptr) {
    return;
  }
  const KvServerSim::Result& server = result.server;
  sink->GetGauge("kv.throughput_kops").Set(server.throughput_kops);
  sink->GetGauge("kv.dram_share").Set(server.dram_share);
  sink->GetGauge("kv.mem_traffic_gbps").Set(server.mem_traffic_gbps);
  sink->GetGauge("kv.ssd_read_gbps").Set(server.ssd_read_gbps);
  sink->GetGauge("kv.ssd_write_gbps").Set(server.ssd_write_gbps);
  sink->GetGauge("kv.avg_service_us").Set(server.avg_service_us);
  sink->GetCounter("kv.migrated_bytes").Add(static_cast<uint64_t>(server.migrated_bytes));
  sink->RecordHistogram("kv.read_latency_us", server.read_latency_us);
  sink->RecordHistogram("kv.update_latency_us", server.update_latency_us);
  sink->RecordHistogram("kv.all_latency_us", server.all_latency_us);
  // End-state /proc/vmstat reading (t = last epoch for the series; the
  // counters here are the run totals).
  const os::VmCounters& counters = result.counters;
  sink->GetCounter("vmstat.pgpromote_success.total").Add(counters.pgpromote_success);
  sink->GetCounter("vmstat.pgdemote.total").Add(counters.pgdemote);
  sink->GetCounter("vmstat.numa_hint_faults.total").Add(counters.numa_hint_faults);
  sink->GetCounter("vmstat.promote_rate_limited.total").Add(counters.promote_rate_limited);
}

// Builds the per-run fault injector described by `env` (nullptr when the
// plan is empty — the healthy path never constructs one).
std::unique_ptr<fault::FaultInjector> MakeInjector(const ExperimentEnv& env) {
  if (!env.faults_enabled()) {
    return nullptr;
  }
  auto injector =
      std::make_unique<fault::FaultInjector>(env.faults, env.fault_seed, env.fault_tunables);
  injector->AttachTelemetry(env.telemetry);
  return injector;
}

// Composes and runs `cell`. `make_source` is called once the store exists,
// so a cell whose store does not fit fails before paying for its op source
// (a YCSB generator's zeta sum grows with the record count).
template <typename MakeSource>
StatusOr<KvCellResult> RunKvCellWith(const KvCell& cell, const ExperimentEnv& env,
                                     MakeSource&& make_source) {
  os::PageAllocator allocator(cell.platform, kKvPageBytes);
  std::unique_ptr<os::TieredMemory> tiering;
  if (cell.tiering.has_value()) {
    tiering = std::make_unique<os::TieredMemory>(allocator, *cell.tiering);
    os::TieredMemory::Observers obs;
    obs.telemetry = env.telemetry;
    tiering->Attach(obs);
  }
  auto store = KvStore::Create(allocator, cell.placement, cell.store, tiering.get());
  if (!store.ok()) {
    return store.status();
  }
  workload::OpSource& source = make_source();
  KvServerConfig server_cfg = cell.server;
  server_cfg.profiler = env.profiler;
  auto injector = MakeInjector(env);
  KvServerSim sim(cell.platform, *store, source, server_cfg, tiering.get(), env.telemetry,
                  injector.get());
  KvCellResult result{sim.Run(), allocator.counters()};
  EmitKvResultTelemetry(env.telemetry, result);
  return result;
}

}  // namespace

StatusOr<KvCellResult> RunKvCell(const KvCell& cell, workload::OpSource& source,
                                 const ExperimentEnv& env) {
  return RunKvCellWith(cell, env, [&source]() -> workload::OpSource& { return source; });
}

StatusOr<KvCellResult> RunKvCell(const KvCell& cell, workload::YcsbWorkload workload,
                                 const ExperimentEnv& env) {
  std::optional<workload::YcsbGenerator> gen;
  return RunKvCellWith(cell, env, [&]() -> workload::OpSource& {
    return gen.emplace(workload, cell.store.record_count, env.seed);
  });
}

KvCell MakeKvCell(CapacityConfig config, const KeyDbExperimentOptions& options) {
  const ExperimentEnv& env = options.env;
  // Platform: the CXL experiment server, SNC disabled (§4.1.1). Hot-Promote
  // runs with DRAM capped at half the dataset.
  Platform platform = config == CapacityConfig::kHotPromote
                          ? MakeHotPromotePlatform(options.dataset_bytes)
                          : Platform::CxlServer(/*snc4=*/false);
  const CapacitySetup setup = MakeCapacitySetup(config, platform);
  KvCell cell{std::move(platform), setup.policy, std::nullopt,
              options.store_preset.value_or(KvStoreConfig{}), KvServerConfig{}};
  if (setup.hot_promote) {
    cell.tiering = DefaultTieringConfig();
    cell.tiering->policy = env.tiering_policy;
  }
  cell.store.record_count = options.dataset_bytes / options.value_bytes;
  cell.store.value_bytes = options.value_bytes;
  cell.store.flash = setup.flash;
  if (setup.flash) {
    cell.store.maxmemory_bytes =
        static_cast<uint64_t>(setup.maxmemory_fraction * static_cast<double>(options.dataset_bytes));
  }
  cell.server.server_threads = options.server_threads;
  cell.server.client_connections = options.client_connections;
  cell.server.total_ops = options.total_ops;
  cell.server.warmup_ops = options.warmup_ops;
  cell.server.seed = env.seed;
  return cell;
}

StatusOr<KeyDbExperimentResult> RunKeyDbExperiment(CapacityConfig config,
                                                   workload::YcsbWorkload workload,
                                                   const KeyDbExperimentOptions& options) {
  auto run = RunKvCell(MakeKvCell(config, options), workload, options.env);
  if (!run.ok()) {
    return run.status();
  }
  KeyDbExperimentResult result;
  result.config_label = ConfigLabel(config);
  result.workload_name = workload::YcsbName(workload);
  result.server = std::move(run->server);
  return result;
}

StatusOr<VmExperimentResult> RunVmCxlOnlyExperiment(KeyDbExperimentOptions options) {
  const ExperimentEnv& env = options.env;
  // §4.3.1: 100 GB YCSB-C dataset (default here: 1/8 scale), SNC disabled,
  // numactl-bound to MMEM or to CXL. The lighter Fig. 8 store preset applies
  // unless the caller overrides it.
  options.store_preset = options.store_preset.value_or(KvStoreConfig::Fig8Preset(0));

  // Both placements replay the same op stream (env.seed, not the derived
  // sweep seed) so the MMEM/CXL comparison is apples to apples.
  const std::vector<int> cells = {0, 1};
  // The cells may run concurrently: each writes its own registry, merged
  // below in cell order under the "mmem." / "cxl." prefixes.
  std::vector<telemetry::MetricRegistry> cell_telemetry(
      env.telemetry != nullptr ? cells.size() : 0);
  auto run_cell = [&options, &env, &cell_telemetry](
                      const int& cell, uint64_t /*seed*/) -> StatusOr<KeyDbExperimentResult> {
    const bool use_cxl = cell != 0;
    KvCell kv = MakeKvCell(CapacityConfig::kMmem, options);
    kv.placement = use_cxl ? os::NumaPolicy::Bind(kv.platform.CxlNodes())
                           : os::NumaPolicy::Bind(kv.platform.DramNodes(/*socket=*/0));
    ExperimentEnv cell_env = env;
    cell_env.telemetry =
        cell_telemetry.empty() ? nullptr : &cell_telemetry[static_cast<size_t>(cell)];
    // Per-cell injector seed: derived with CellSeed so the two placements
    // draw independent fault streams yet the pair is reproducible at any
    // --jobs setting.
    cell_env.fault_seed = runner::CellSeed(env.fault_seed, static_cast<size_t>(cell));
    auto run = RunKvCell(kv, workload::YcsbWorkload::kC, cell_env);
    if (!run.ok()) {
      return run.status();
    }
    KeyDbExperimentResult res;
    res.config_label = use_cxl ? "CXL" : "MMEM";
    res.workload_name = "YCSB-C";
    res.server = std::move(run->server);
    return res;
  };

  runner::SweepOptions sweep_options;
  sweep_options.jobs = env.jobs;
  sweep_options.base_seed = env.seed;
  auto results = runner::RunSweep(cells, run_cell, sweep_options);
  if (!results.ok()) {
    return results.status();
  }
  if (env.telemetry != nullptr) {
    env.telemetry->MergeFrom(cell_telemetry[0], "mmem.");
    env.telemetry->MergeFrom(cell_telemetry[1], "cxl.");
  }

  VmExperimentResult out;
  out.mmem = std::move((*results)[0]);
  out.cxl = std::move((*results)[1]);
  if (out.mmem.server.throughput_kops > 0.0) {
    out.throughput_penalty =
        1.0 - out.cxl.server.throughput_kops / out.mmem.server.throughput_kops;
    out.cxl.slowdown_vs_baseline =
        out.mmem.server.throughput_kops / out.cxl.server.throughput_kops;
  }
  return out;
}

apps::spark::QueryResult RunSparkCell(const SparkCell& cell, const ExperimentEnv& env) {
  // The injector exists before the cluster so the cluster can observe it,
  // but attaches its telemetry last: the trace tracks register as
  // spark/<mode>, promotion-daemon, faults.
  std::unique_ptr<fault::FaultInjector> injector;
  if (env.faults_enabled()) {
    injector =
        std::make_unique<fault::FaultInjector>(env.faults, env.fault_seed, env.fault_tunables);
  }
  apps::spark::SparkCluster cluster(cell.cluster, env.telemetry, injector.get());
  if (injector != nullptr) {
    injector->AttachTelemetry(env.telemetry);
  }
  return cluster.RunQuery(cell.query);
}

StatusOr<LlmExperimentResult> RunLlmExperiment(const LlmExperimentOptions& options) {
  const ExperimentEnv& env = options.env;
  if (options.requests <= 0) {
    return Status::InvalidArgument("LlmExperimentOptions.requests must be positive");
  }
  apps::llm::ServingStack stack(options.stack);
  auto injector = MakeInjector(env);
  LlmExperimentResult out;
  out.stats = stack.Drive(options.request, options.requests, &out.latency_s, env.seed,
                          env.telemetry, injector.get());
  return out;
}

}  // namespace cxl::core
